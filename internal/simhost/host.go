// Package simhost hosts consensus replicas on simnet endpoints. Host is the
// transport half of consensus.Host — routing, timers, CPU charging, signing,
// tracing, and the dispatch of network messages into Replica.Step — written
// once and embedded by every node type that runs a replica (a consensus node
// with a co-located sequencer, an ordering-service node, a test-harness
// node). An embedder adds only what the protocol's decisions mean to it:
// Proposed, Deliver, ViewChanged, ViewChangeMeta.
//
// The package knows no protocol: it must stay importable by constest, which
// the protocol packages' own tests import.
package simhost

import (
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/cost"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
)

// Group is the consensus membership the hosts of one deployment share:
// member i's endpoint is Members[i] and its signing identity Identity(i).
type Group struct {
	Sim    *simnet.Sim
	Scheme crypto.Scheme
	// Tracer, when non-nil, receives the members' protocol milestones.
	Tracer *trace.Tracer
	// Identity names member i in Scheme.
	Identity func(i int) crypto.Identity

	Members []*simnet.Endpoint
	index   map[simnet.NodeID]int
}

// Join makes ep the group's next member, registers the member's identity
// with the scheme, and binds h to it.
func (g *Group) Join(h *Host, ep *simnet.Endpoint) {
	if g.index == nil {
		g.index = make(map[simnet.NodeID]int)
	}
	h.g, h.Idx, h.Ep = g, len(g.Members), ep
	g.index[ep.ID()] = h.Idx
	g.Members = append(g.Members, ep)
	g.Scheme.Register(g.Identity(h.Idx))
}

// Index returns the member index of endpoint id.
func (g *Group) Index(id simnet.NodeID) (int, bool) {
	i, ok := g.index[id]
	return i, ok
}

// Config lowers a cost model and a group's shape onto the parameters every
// protocol shares; the caller sets Self per replica.
func Config(m cost.Model, n, f int, policy consensus.LeaderPolicy, viewTimeout time.Duration) consensus.Config {
	return consensus.Config{
		N: n, F: f,
		Policy:           policy,
		ViewTimeout:      viewTimeout,
		SigVerify:        m.SigVerify,
		SigSign:          m.SigSign,
		MACVerify:        m.MACVerify,
		MACCompute:       m.MACCompute,
		ThresholdSign:    m.ThresholdSign,
		ThresholdCombine: m.ThresholdCombine,
	}
}

// Host is one group member's replica transport. The embedder registers its
// endpoint, joins it to a Group, and then sets Rep to a replica constructed
// with the embedder itself as its consensus.Host.
type Host struct {
	g *Group
	// Idx is this member's index in the group, Ep its endpoint.
	Idx int
	Ep  *simnet.Endpoint
	// Ctx is the activation the node is currently running in: set by Bind
	// for the duration of a message, timer or injected call, nil otherwise.
	Ctx *simnet.Context
	// Rep is the hosted replica.
	Rep consensus.Replica
}

// Endpoint returns the node's simnet endpoint.
func (h *Host) Endpoint() *simnet.Endpoint { return h.Ep }

// Replica exposes the hosted consensus replica (tests and attacks).
func (h *Host) Replica() consensus.Replica { return h.Rep }

// Bind makes ctx current for the duration of fn and restores the previous
// activation afterwards (activations nest: a loopback Send steps the replica
// inside the sender's activation).
func (h *Host) Bind(ctx *simnet.Context, fn func()) {
	prev := h.Ctx
	h.Ctx = ctx
	defer func() { h.Ctx = prev }()
	fn()
}

// Receive steps the replica with a protocol message that arrived from
// endpoint from; traffic from outside the group is ignored.
func (h *Host) Receive(from simnet.NodeID, m consensus.Msg) {
	if idx, ok := h.g.index[from]; ok {
		h.Rep.Step(idx, m)
	}
}

// Send implements consensus.Host. A message to oneself steps the replica
// directly, without touching the network.
func (h *Host) Send(to int, m consensus.Msg) {
	if to == h.Idx {
		h.Rep.Step(h.Idx, m)
		return
	}
	h.Ctx.Send(h.g.Members[to].ID(), m)
}

// BroadcastCN implements consensus.Host.
func (h *Host) BroadcastCN(m consensus.Msg) {
	for i, peer := range h.g.Members {
		if i != h.Idx {
			h.Ctx.Send(peer.ID(), m)
		}
	}
}

// After implements consensus.Host: fn runs bound to the timer's activation.
func (h *Host) After(d time.Duration, fn func()) {
	h.Ctx.After(d, func(c2 *simnet.Context) { h.Bind(c2, fn) })
}

// Elapse implements consensus.Host.
func (h *Host) Elapse(d time.Duration) { h.Ctx.Elapse(d) }

// Sign implements consensus.Host.
func (h *Host) Sign(data []byte) crypto.Signature {
	sig, err := h.g.Scheme.Sign(h.g.Identity(h.Idx), data)
	if err != nil {
		panic(err)
	}
	return sig
}

// VerifyNode implements consensus.Host.
func (h *Host) VerifyNode(node int, data []byte, sig crypto.Signature) bool {
	return h.g.Scheme.Verify(h.g.Identity(node), data, sig)
}

// RandInt implements consensus.Host.
func (h *Host) RandInt(n int) int { return h.g.Sim.Rand().Intn(n) }

// ConsensusPhase implements consensus.PhaseRecorder: protocol milestones
// (pre-prepare, prepared, committed, QC formations, ...) land on the tracer's
// consensus track.
func (h *Host) ConsensusPhase(phase string, view, seq uint64) {
	if tr := h.g.Tracer; tr != nil {
		tr.Phase(phase, int(h.Ep.ID()), view, seq, h.Ctx.Now())
	}
}
