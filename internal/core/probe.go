package core

import (
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/simnet"
)

// PersistProbe observes how a cluster's normal nodes reach PERSIST quorums,
// for tests that compare two ways of getting there; it changes nothing
// simulated. A cluster takes the probe set when it is built.
type PersistProbe struct {
	// Adopted, when non-nil, is called whenever a normal node adopts a
	// persisted result: the node, the sequence number, the virtual time and
	// the consensus node whose PERSIST message completed the quorum. It may
	// run inside the cluster's PERSIST stream and must not call into the
	// cluster.
	Adopted func(node simnet.NodeID, seq uint64, at time.Duration, from int)
	// Private keeps every normal node on its own tally and its own world
	// state: the cluster shares no PERSIST stream and no committed state.
	Private bool

	visits atomic.Uint64
}

// Visits is the PERSIST entry visits so far: iterations of a vote loop,
// the stream's or a node's own, plus echoes a following node adopted.
func (p *PersistProbe) Visits() uint64 { return p.visits.Load() }

var probe *PersistProbe

// SetPersistProbe makes p the probe of clusters built from now on, until
// restore is called. Tests only: clusters built concurrently with the call
// race with it.
func SetPersistProbe(p *PersistProbe) (restore func()) {
	prev := probe
	probe = p
	return func() { probe = prev }
}
