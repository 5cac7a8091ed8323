package core

import (
	"sort"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// ClientNode models one BIDL client: it submits signed transactions to the
// current leader's sequencer (Phase 1), tracks commit notifications for
// latency measurement, and retransmits uncommitted transactions to all
// consensus nodes after a timeout (§4.5, the liveness path).
type ClientNode struct {
	c  *Cluster
	id crypto.Identity
	ep *simnet.Endpoint

	pending    map[types.TxID]*types.Transaction
	retryArmed bool

	// hook, when non-nil, observes every commit-notice entry addressed to
	// this client after pending bookkeeping — the sharded harness's 2PC
	// coordinator rides on a dedicated client per shard (DESIGN.md §14).
	hook func(ctx *simnet.Context, e CommitEntry)
	// quiet suppresses collector accounting and trace stages: coordinator
	// sub-transactions are pipeline internals, not workload transactions,
	// and must not distort throughput/latency metrics. The pending map and
	// retransmission path stay live so §4.5 liveness covers sub-txns too.
	quiet bool
}

// Endpoint returns the client's simnet endpoint.
func (cl *ClientNode) Endpoint() *simnet.Endpoint { return cl.ep }

// Pending returns how many transactions await commit notification.
func (cl *ClientNode) Pending() int { return len(cl.pending) }

// OnMessage implements simnet.Handler.
func (cl *ClientNode) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *CommitNotice:
		for _, e := range m.Entries {
			if _, ok := cl.pending[e.TxID]; !ok {
				continue
			}
			delete(cl.pending, e.TxID)
			if !cl.quiet {
				cl.c.Notified(e.TxID, cl.ep.ID(), ctx.Now(), e.Aborted)
			}
			if cl.hook != nil {
				cl.hook(ctx, e)
			}
		}
	case *SubmitBatch:
		// A 2PC decision batch handed over by the sharded harness's
		// coordinator hook: submit it like any other.
		cl.Submit(ctx, m.Txns)
	}
}

// Submit records and forwards a batch to the current leader's sequencer.
func (cl *ClientNode) Submit(ctx *simnet.Context, txns []*types.Transaction) {
	for _, tx := range txns {
		cl.pending[tx.ID()] = tx
		if !cl.quiet {
			cl.c.Submitted(tx.ID(), cl.ep.ID(), ctx.Now())
		}
	}
	leader := cl.c.LeaderIndex()
	ctx.Send(cl.c.Sequencers[leader].ep.ID(), &SubmitBatch{Txns: txns})
	cl.armRetry(ctx)
}

// armRetry schedules the §4.5 client retransmission check.
func (cl *ClientNode) armRetry(ctx *simnet.Context) {
	if cl.retryArmed || cl.c.Cfg.ClientTimeout <= 0 {
		return
	}
	cl.retryArmed = true
	ctx.After(cl.c.Cfg.ClientTimeout, func(c2 *simnet.Context) {
		cl.retryArmed = false
		if len(cl.pending) == 0 {
			return
		}
		// Retransmit everything still pending to all consensus nodes.
		var txns []*types.Transaction
		for _, tx := range cl.pending {
			txns = append(txns, tx)
		}
		sortTxns(txns)
		for _, cn := range cl.c.ConsNodes {
			c2.Send(cn.Ep.ID(), &RelayBatch{Txns: txns})
		}
		cl.armRetry(c2)
	})
}

// sortTxns orders transactions by (client, nonce) for determinism (map
// iteration order is random).
func sortTxns(txns []*types.Transaction) {
	sort.Slice(txns, func(i, j int) bool {
		if txns[i].Client != txns[j].Client {
			return txns[i].Client < txns[j].Client
		}
		return txns[i].Nonce < txns[j].Nonce
	})
}
