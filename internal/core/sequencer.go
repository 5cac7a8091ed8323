package core

import (
	"math/rand"
	"time"

	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// seqActivate is the local control message a consensus node sends its
// co-located sequencer when it gains or loses leadership.
type seqActivate struct {
	Active   bool
	View     uint64
	StartSeq uint64
}

// Size implements simnet.Message.
func (seqActivate) Size() int { return 24 }

// SequencerNode models the paper's software sequencer (§6: DPDK-based,
// ~20 µs added delay, line-rate multicast). Each consensus node has a
// co-located sequencer ("the BFT leader acts as the sequencer by running a
// sequencing thread", §3.2 Phase 2); only the current leader's is active.
//
// The sequencer assigns consecutive sequence numbers and multicasts
// transactions to all consensus and normal nodes. Sequence numbers are
// deliberately unsigned (§4.1).
type SequencerNode struct {
	c   *Cluster
	idx int // owning consensus node index
	ep  *simnet.Endpoint

	active  bool
	view    uint64
	nextSeq uint64
	seen    map[types.TxID]bool // dedup within this leadership term

	pending    []types.SequencedTx
	flushTimer simnet.Timer

	// Garbage, when set, makes this sequencer emit invalid transactions
	// (random payloads with unverifiable signatures) instead of the real
	// client transactions — the Table 4 S2 malicious leader.
	Garbage bool
	grng    *rand.Rand
}

// Endpoint returns the sequencer's simnet endpoint.
func (s *SequencerNode) Endpoint() *simnet.Endpoint { return s.ep }

// OnRestart implements simnet.Restarter: the crash lost the in-memory
// pending batch. The next ingest re-arms the flush timer.
func (s *SequencerNode) OnRestart(ctx *simnet.Context) {
	s.pending = nil
}

// OnMessage implements simnet.Handler.
func (s *SequencerNode) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *seqActivate:
		// Idempotent: the owning consensus node re-asserts the desired
		// state periodically (the activation handoff itself can be lost
		// to a drop fault), so a repeat of the current term must not
		// reset the dedup set or the sequence counter.
		if m.Active {
			if !s.active || s.view != m.View {
				s.view = m.View
				s.nextSeq = m.StartSeq
				s.seen = make(map[types.TxID]bool)
			}
			s.active = true
		} else {
			s.active = false
		}
	case *SubmitBatch:
		s.ingest(ctx, m.Txns)
	}
}

// ingest sequences transactions (or forwards them to the active leader's
// sequencer when this one is passive).
func (s *SequencerNode) ingest(ctx *simnet.Context, txns []*types.Transaction) {
	if !s.active {
		// Forward to the current leader's sequencer.
		leader := s.c.LeaderIndex()
		if leader == s.idx {
			// We are about to become active; drop and let client
			// retransmission handle it.
			return
		}
		ctx.Send(s.c.Sequencers[leader].ep.ID(), &SubmitBatch{Txns: txns})
		return
	}
	for _, tx := range txns {
		// TLS-link authentication of the submitting client (§4.1:
		// hybrid MAC for client transactions).
		ctx.Elapse(s.c.Cfg.Costs.MACVerify)
		if s.seen[tx.ID()] {
			continue
		}
		s.seen[tx.ID()] = true
		out := tx
		if s.Garbage {
			// tx.Size() is memoized on the (immutable, shared) inbound
			// transaction, so sizing the forged replacement no longer
			// re-marshals the original per malicious packet.
			out = s.garbageTxn(tx.Size())
		}
		s.pending = append(s.pending, types.SequencedTx{Seq: s.nextSeq, Tx: out})
		s.nextSeq++
		if tr := s.c.Tracer; tr != nil {
			tr.TxStage(out.ID(), trace.StageSequenced, int(s.ep.ID()), ctx.Now())
		}
		if len(s.pending) >= seqBatchMax {
			s.flush(ctx)
		}
	}
	if len(s.pending) > 0 {
		s.flushTimer.Arm(ctx, seqFlushInterval)
	}
}

// flush multicasts the pending batch to every consensus and normal node.
func (s *SequencerNode) flush(ctx *simnet.Context) {
	if len(s.pending) == 0 || !s.active {
		s.pending = nil
		return
	}
	batch := &SeqBatch{View: s.view, Txns: s.pending}
	batch.resolve(s.c.Hashes)
	s.pending = nil
	// The sequencer's added per-transaction delay (§6: ~20 µs for 1 KB
	// transactions) — this is what caps BIDL's throughput near the
	// paper's 40-50k txns/s.
	ctx.Elapse(time.Duration(len(batch.Txns)) * s.c.Cfg.Costs.SequencerPerTxn)
	s.c.multicast(ctx, s.c.groupTxns, batch)
}

// garbageTxn fabricates an invalid transaction of roughly the given size.
func (s *SequencerNode) garbageTxn(size int) *types.Transaction {
	if s.grng == nil {
		s.grng = rand.New(rand.NewSource(int64(s.idx)*7919 + 13))
	}
	junk := make([]byte, 32)
	s.grng.Read(junk)
	pad := size - 200
	if pad < 0 {
		pad = 0
	}
	t := &types.Transaction{
		Client:   "forged-client",
		Nonce:    s.grng.Uint64(),
		Contract: "smallbank",
		Fn:       "send_payment",
		Args:     [][]byte{junk},
		Orgs:     []string{"org0", "org1"},
		Padding:  uint32(pad),
		Sig:      junk,
	}
	// Pre-fill the lazy caches before the transaction leaves this node
	// (see Transaction.Warm).
	t.Warm()
	return t
}
