package chaos

import (
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// EchoAdversary implements the §5.2 false-positive analysis attack: it
// re-broadcasts *correct clients'* transactions under future sequence
// numbers, trying to frame them as conflict-causing (and so get them
// denylisted).
//
// Under the triangle-inequality network model this fails: every node has
// already received the original transaction from the sequencer, so the
// replay check (§4.1 step 2) discards the echoed copy. Only when the
// adversary's path to a victim beats the sequencer's (a triangle-inequality
// violation) can the echoed copy occupy a sequence slot first and later
// surface as a conflict attributed to the innocent client.
type EchoAdversary struct {
	c  *core.Cluster
	ep *simnet.Endpoint
	// SeqOffset is how far into the future echoed copies are placed.
	SeqOffset uint64
	running   bool
	// Echoed counts re-broadcast transactions.
	Echoed uint64
}

// NewEchoAdversary attaches the echo adversary to the cluster.
func NewEchoAdversary(c *core.Cluster) *EchoAdversary {
	e := &EchoAdversary{c: c, SeqOffset: 40}
	e.ep = c.AttachAdversary("echo-adversary", 0, e)
	return e
}

// Start arms the attack at virtual time at.
func (e *EchoAdversary) Start(at time.Duration) {
	e.c.Sim.At(at, func() { e.running = true })
}

// OnMessage implements simnet.Handler: every observed sequenced transaction
// is immediately re-broadcast under a future sequence number.
func (e *EchoAdversary) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(*core.SeqBatch)
	if !ok || !e.running || from == e.ep.ID() {
		return
	}
	echoed := make([]types.SequencedTx, 0, len(m.Txns))
	for _, st := range m.Txns {
		echoed = append(echoed, types.SequencedTx{Seq: st.Seq + e.SeqOffset, Tx: st.Tx})
		e.Echoed++
	}
	ctx.Multicast(e.c.TxnGroup(), &core.SeqBatch{Txns: echoed})
}
