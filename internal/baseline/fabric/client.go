package fabric

import (
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// pendingTx tracks one client transaction through the endorsement round.
type pendingTx struct {
	tx *types.Transaction
	// resps holds one reply per organization heard from, sorted by its name.
	resps     []*EndorseResp
	submitted bool
	start     time.Duration
}

// Client drives the execute→order→validate workflow: it requests
// endorsements from one peer per related organization, assembles the
// envelope, submits it to the ordering service, and waits for the commit
// notification (client-perceived latency, §6).
type Client struct {
	c  *Cluster
	id crypto.Identity
	ep *simnet.Endpoint

	pending map[types.TxID]*pendingTx
}

// Endpoint returns the client's simnet endpoint.
func (cl *Client) Endpoint() *simnet.Endpoint { return cl.ep }

// Pending returns how many transactions are in flight.
func (cl *Client) Pending() int { return len(cl.pending) }

// OnMessage implements simnet.Handler.
func (cl *Client) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *EndorseResp:
		cl.onEndorse(ctx, m)
	case *CommitNote:
		for _, e := range m.Entries {
			if _, ok := cl.pending[e.TxID]; !ok {
				continue
			}
			delete(cl.pending, e.TxID)
			cl.c.Notified(e.TxID, cl.ep.ID(), ctx.Now(), e.Aborted)
		}
	}
}

// Submit starts the endorsement round for a batch of transactions.
func (cl *Client) Submit(ctx *simnet.Context, txns []*types.Transaction) {
	for _, tx := range txns {
		id := tx.ID()
		if _, ok := cl.pending[id]; ok {
			continue
		}
		cl.pending[id] = &pendingTx{tx: tx, resps: make([]*EndorseResp, 0, len(tx.Orgs)), start: ctx.Now()}
		cl.c.Submitted(id, cl.ep.ID(), ctx.Now())
		for _, org := range tx.Orgs {
			o := types.OrgIndex(org)
			if o < 0 || o >= len(cl.c.Peers) || len(cl.c.Peers[o]) == 0 {
				continue
			}
			// Endorse at the organization's lead peer.
			ctx.Send(cl.c.Peers[o][0].ep.ID(), &EndorseReq{Tx: tx})
		}
	}
}

// onEndorse collects endorsements; once every related org responded, the
// envelope is assembled and submitted for ordering.
func (cl *Client) onEndorse(ctx *simnet.Context, m *EndorseResp) {
	pt, ok := cl.pending[m.TxID]
	if !ok || pt.submitted {
		return
	}
	if m.Err {
		// Endorsement failure: the transaction cannot proceed.
		pt.submitted = true
		delete(cl.pending, m.TxID)
		cl.c.Notified(m.TxID, cl.ep.ID(), ctx.Now(), true)
		return
	}
	// A second reply from an organization replaces its first.
	at, found := slices.BinarySearchFunc(pt.resps, m.Endorsement.Org,
		func(r *EndorseResp, org string) int { return strings.Compare(r.Endorsement.Org, org) })
	if found {
		pt.resps[at] = m
	} else {
		pt.resps = slices.Insert(pt.resps, at, m)
	}
	if len(pt.resps) < len(pt.tx.Orgs) {
		return
	}
	// All endorsements in: check result agreement. Non-deterministic
	// transactions produce mismatching endorsements and are early-aborted
	// (FastFabric behaviour, §6.3) — they never reach ordering.
	first := pt.resps[0]
	for _, r := range pt.resps[1:] {
		if r.Endorsement.Digest != first.Endorsement.Digest {
			pt.submitted = true
			delete(cl.pending, m.TxID)
			atomic.AddUint64(&cl.c.Collector.NondetAborts, 1)
			cl.c.Notified(m.TxID, cl.ep.ID(), ctx.Now(), true)
			return
		}
	}
	env := &Envelope{
		Tx:           pt.tx,
		Reads:        first.Reads,
		Writes:       first.Writes,
		Aborted:      first.Aborted,
		Endorsements: make([]Endorsement, len(pt.resps)),
	}
	for i, r := range pt.resps {
		env.Endorsements[i] = r.Endorsement
	}
	pt.submitted = true
	cl.c.Collector.Phase(metrics.PhaseEndorse, ctx.Now()-pt.start)
	ctx.Send(cl.c.Orderers[cl.c.LeaderIndex()].Ep.ID(), &SubmitEnvelopes{Envs: []*Envelope{env}})
}
