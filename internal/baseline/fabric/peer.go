package fabric

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// Peer is a Fabric peer: it endorses (simulates) transactions against its
// committed state and validates+commits ordered blocks (VSCC + MVCC).
type Peer struct {
	c        *Cluster
	org      int
	orgName  string
	idxInOrg int
	ep       *simnet.Endpoint

	state  *ledger.State
	blocks *ledger.BlockStore
	nondet *rand.Rand

	commitHeight uint64
	blockBuf     map[uint64]*FabricBlock
	// committed marks, by ordinal in the deployment's hash table, the
	// transactions some block already carried.
	committed dense.Pages[bool]
	fetching  bool
}

// Endpoint returns the peer's simnet endpoint.
func (p *Peer) Endpoint() *simnet.Endpoint { return p.ep }

// State exposes the committed world state.
func (p *Peer) State() *ledger.State { return p.state }

// Blocks exposes the peer's ledger.
func (p *Peer) Blocks() *ledger.BlockStore { return p.blocks }

// CommitHeight returns the number of committed blocks.
func (p *Peer) CommitHeight() uint64 { return p.commitHeight }

func newPeer(c *Cluster, org, idxInOrg int, seed int64) *Peer {
	return &Peer{
		c:        c,
		org:      org,
		orgName:  types.OrgName(org),
		idxInOrg: idxInOrg,
		state:    ledger.NewStateOn(c.Keys),
		blocks:   ledger.NewBlockStore(),
		nondet:   rand.New(rand.NewSource(seed)),
		blockBuf: make(map[uint64]*FabricBlock),
	}
}

// OnRestart implements simnet.Restarter: the fetch-cooldown timer died with
// the crash, so its guard flag must reset; the next delivered block re-opens
// the catch-up window.
func (p *Peer) OnRestart(ctx *simnet.Context) {
	p.fetching = false
}

// OnMessage implements simnet.Handler.
func (p *Peer) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *EndorseReq:
		p.endorse(ctx, from, m)
	case *FabricBlock:
		p.onBlock(ctx, from, m)
	}
}

// endorse simulates the transaction against committed state and signs the
// result (the execute phase of execute→order→validate).
func (p *Peer) endorse(ctx *simnet.Context, from simnet.NodeID, m *EndorseReq) {
	costs := p.c.Cfg.Costs
	verifyCost, signCost := p.c.Cfg.endorsePerTxn()
	ctx.Elapse(verifyCost) // client signature (cached/pipelined in FF)
	resp := &EndorseResp{TxID: m.Tx.ID()}
	if !m.Tx.VerifySig(p.c.Scheme) || !m.Tx.RelatedTo(p.orgName) {
		resp.Err = true
		ctx.Send(from, resp)
		return
	}
	// The corresponding org's lead peer is the single stage authority for
	// execution marks (mirrors the BIDL delegate rule).
	traceExec := p.c.Cfg.Tracer != nil && p.idxInOrg == 0 && m.Tx.CorrespondingOrg() == p.orgName
	if traceExec {
		p.c.Cfg.Tracer.TxStage(m.Tx.ID(), trace.StageExecStart, int(p.ep.ID()), ctx.Now())
	}
	ctx.Elapse(costs.ExecTxn)
	rw := p.c.Registry.Execute(p.state, m.Tx, p.nondet)
	if traceExec {
		p.c.Cfg.Tracer.TxStage(m.Tx.ID(), trace.StageExecuted, int(p.ep.ID()), ctx.Now())
	}
	resp.Reads, resp.Writes, resp.Aborted = rw.Reads, rw.Writes, rw.Aborted
	dig := rw.Digest()
	ctx.Elapse(signCost)
	sig, err := p.c.Scheme.Sign(crypto.Identity(p.orgName), endorsementBytes(m.Tx.ID(), p.orgName, dig))
	if err != nil {
		resp.Err = true
	} else {
		resp.Endorsement = Endorsement{Org: p.orgName, Digest: dig, Sig: sig}
	}
	ctx.Send(from, resp)
}

// onBlock buffers and processes ordered blocks in order.
func (p *Peer) onBlock(ctx *simnet.Context, from simnet.NodeID, m *FabricBlock) {
	if m.Number < p.commitHeight {
		return
	}
	if _, ok := p.blockBuf[m.Number]; ok {
		return
	}
	// Verify the ordering certificate when present (BFT ordering).
	if m.Cert != nil {
		ctx.Elapse(p.c.Cfg.Costs.SigVerify + time.Duration(p.c.Cfg.quorum())*p.c.Cfg.Costs.MACVerify)
		if !m.Cert.Verify(p.c.Scheme, ordererIdentity, p.c.Cfg.quorum()) {
			return
		}
	}
	p.blockBuf[m.Number] = m
	for {
		blk, ok := p.blockBuf[p.commitHeight]
		if !ok {
			p.maybeFetch(ctx, from, p.topBuffered())
			return
		}
		p.validateAndCommit(ctx, blk)
		delete(p.blockBuf, p.commitHeight)
		p.commitHeight++
	}
}

// topBuffered returns one past the highest buffered block number — the
// exclusive upper bound of the gap a fetch needs to cover (the buffered
// blocks themselves need no re-send).
func (p *Peer) topBuffered() uint64 {
	top := p.commitHeight
	for n := range p.blockBuf {
		if n > top {
			top = n
		}
	}
	return top
}

// maybeFetch requests the missing block range [commitHeight, top) from the
// orderer src when delivery left a gap (the peer was down or partitioned
// while blocks went out). A cooldown guard bounds request rate; when it
// expires the gap is re-checked so a capped response chain keeps advancing
// even if no fresh block arrives to re-trigger detection.
func (p *Peer) maybeFetch(ctx *simnet.Context, src simnet.NodeID, top uint64) {
	if p.fetching || top <= p.commitHeight {
		return
	}
	p.fetching = true
	ctx.Send(src, &FabricBlockFetch{From: p.commitHeight, To: top})
	ctx.After(2*p.c.Cfg.BlockTimeout, func(c2 *simnet.Context) {
		p.fetching = false
		p.maybeFetch(c2, src, p.topBuffered())
	})
}

// validateAndCommit is the validate phase: VSCC endorsement checks and the
// sequential MVCC check, then commit of valid write sets. Contending
// transactions endorsed against the same snapshot abort here (§6.3).
func (p *Peer) validateAndCommit(ctx *simnet.Context, blk *FabricBlock) {
	costs := p.c.Cfg.Costs
	start := ctx.Now()
	ctx.Elapse(costs.BlockOverhead)
	notices := make(map[crypto.Identity][]CommitEntry)
	for i, env := range blk.Envs {
		done := p.committed.At(blk.ords.Intern(p.c.Hashes, i, env.Tx.ID()))
		if *done {
			continue
		}
		*done = true
		ctx.Elapse(p.c.Cfg.validatePerTxn())
		aborted := env.Aborted
		if !aborted && !env.endorsed(p.c.Scheme) {
			aborted = true
			atomic.AddUint64(&p.c.Collector.RejectedTxns, 1)
		}
		if !aborted && !p.state.ValidateResolved(env.Reads, env.rkeys) {
			aborted = true
			atomic.AddUint64(&p.c.Collector.MVCCAborts, 1)
		}
		if !aborted {
			ctx.Elapse(costs.CommitTxn)
			p.state.ApplyResolved(env.Writes, env.wkeys, ledger.Version{Block: blk.Number, Tx: i})
		}
		// The first related org's lead peer notifies the client.
		if p.idxInOrg == 0 && env.Tx.CorrespondingOrg() == p.orgName {
			id := env.Tx.ID()
			notices[env.Tx.Client] = append(notices[env.Tx.Client], CommitEntry{TxID: id, Aborted: aborted})
			if tr := p.c.Cfg.Tracer; tr != nil {
				// Block arrival at the committing peer, then the durable
				// commit after VSCC+MVCC, on the same stage authority.
				tr.TxStage(id, trace.StageDelivered, int(p.ep.ID()), start)
				tr.TxStage(id, trace.StagePersisted, int(p.ep.ID()), ctx.Now())
			}
		}
	}
	// Ledger append.
	if err := p.blocks.AppendHashed(blk.block(p.blocks.LastDigest())); err != nil {
		p.c.Violation("peer block append: " + err.Error())
	}
	p.c.Collector.Phase(metrics.PhaseValidate, ctx.Now()-start)

	clients := make([]crypto.Identity, 0, len(notices))
	for cl := range notices {
		clients = append(clients, cl)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	for _, cl := range clients {
		if ep, ok := p.c.ClientEndpoint(cl); ok {
			ctx.Send(ep, &CommitNote{Entries: notices[cl]})
		}
	}
}
