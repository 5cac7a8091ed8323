package fabric

import (
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
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
	// exec runs every endorsement; the response carries a copy of its result.
	exec contract.ExecScratch

	commitHeight uint64
	blockBuf     map[uint64]*FabricBlock
	// committed marks, by ordinal in the deployment's hash table, the
	// transactions some block already carried.
	committed dense.Pages[bool]
	// fetchTimer spaces block fetches from fetchSrc and re-checks the gap.
	fetchTimer simnet.Timer
	fetchSrc   simnet.NodeID
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
	p := &Peer{
		c:        c,
		org:      org,
		orgName:  types.OrgName(org),
		idxInOrg: idxInOrg,
		state:    c.world.View(),
		blocks:   ledger.NewBlockStore(),
		nondet:   rand.New(rand.NewSource(seed)),
		blockBuf: make(map[uint64]*FabricBlock),
	}
	p.fetchTimer = simnet.NewTimer(func(c *simnet.Context) { p.maybeFetch(c, p.fetchSrc) })
	return p
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
	rw := p.c.Registry.ExecuteTransient(p.state, m.Tx, p.nondet, &p.exec)
	if traceExec {
		p.c.Cfg.Tracer.TxStage(m.Tx.ID(), trace.StageExecuted, int(p.ep.ID()), ctx.Now())
	}
	resp.Reads, resp.Writes = append([]ledger.Read(nil), rw.Reads...), append([]ledger.Write(nil), rw.Writes...)
	resp.Aborted = rw.Aborted
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
			p.maybeFetch(ctx, from)
			return
		}
		p.validateAndCommit(ctx, blk)
		delete(p.blockBuf, p.commitHeight)
		p.commitHeight++
	}
}

// maybeFetch requests the missing block range [commitHeight, top) from the
// orderer src when delivery left a gap (the peer was down or partitioned
// while blocks went out); top, the highest buffered block, needs no re-send.
// A cooldown timer bounds request rate; when it expires the gap is
// re-checked so a capped response chain keeps advancing even if no fresh
// block arrives to re-trigger detection.
func (p *Peer) maybeFetch(ctx *simnet.Context, src simnet.NodeID) {
	if p.fetchTimer.Armed() {
		return
	}
	top := p.commitHeight
	for n := range p.blockBuf {
		top = max(top, n)
	}
	if top <= p.commitHeight {
		return
	}
	p.fetchSrc = src
	ctx.Send(src, &FabricBlockFetch{From: p.commitHeight, To: top})
	p.fetchTimer.Arm(ctx, 2*p.c.Cfg.BlockTimeout)
}

// verdict is what validation made of one envelope of a block.
type verdict uint8

const (
	skipped    verdict = iota // carried by an earlier envelope, or aborted by its endorsers
	rejected                  // VSCC failed
	conflicted                // MVCC failed
	valid                     // its writes applied
)

// chainPos is what a block's verdicts depend on besides the state below it:
// the block object, whose envelopes memoise their VSCC verdicts, and the
// chain tip before it, which fixes the transactions earlier blocks carried.
type chainPos struct {
	blk *FabricBlock
	tip crypto.Digest
}

// validate is one envelope's VSCC endorsement check and sequential MVCC
// check against p's state, and the commit of its writes when both pass.
func (p *Peer) validate(env *Envelope, ver ledger.Version) verdict {
	switch {
	case env.Aborted:
		return skipped
	case !env.endorsed(p.c.Scheme):
		return rejected
	case !p.state.ValidateResolved(env.Reads, env.rkeys):
		return conflicted
	}
	p.state.ApplyResolved(env.Writes, env.wkeys, ver)
	return valid
}

// validateAndCommit is the validate phase: VSCC endorsement checks and the
// sequential MVCC check, then commit of valid write sets. Contending
// transactions endorsed against the same snapshot abort here (§6.3). A peer
// whose view follows another that validated the block at the same position
// adopts its verdicts and charges, counts and notifies as if it ran them.
func (p *Peer) validateAndCommit(ctx *simnet.Context, blk *FabricBlock) {
	costs := p.c.Cfg.Costs
	start := ctx.Now()
	ctx.Elapse(costs.BlockOverhead)
	// The verdicts another peer's view wrote blk at this position with
	// (adopt), or, when p's view writes blk, a slice to record p's own in.
	vs, adopt := ledger.Follow[chainPos, verdict](p.state, chainPos{blk, p.blocks.LastDigest()}, len(blk.Envs), nil)
	notices := make(map[crypto.Identity][]substrate.CommitEntry)
	for i, env := range blk.Envs {
		done := p.committed.At(blk.ords.Intern(p.c.Hashes, i, env.Tx.ID()))
		if *done {
			continue
		}
		*done = true
		ctx.Elapse(p.c.Cfg.validatePerTxn())
		var v verdict
		if adopt {
			v = vs[i]
		} else if v = p.validate(env, ledger.Version{Block: blk.Number, Tx: i}); vs != nil {
			vs[i] = v
		}
		switch v {
		case rejected:
			atomic.AddUint64(&p.c.Collector.RejectedTxns, 1)
		case conflicted:
			atomic.AddUint64(&p.c.Collector.MVCCAborts, 1)
		case valid:
			ctx.Elapse(costs.CommitTxn)
		}
		aborted := v != valid
		// The first related org's lead peer notifies the client.
		if p.idxInOrg == 0 && env.Tx.CorrespondingOrg() == p.orgName {
			id := env.Tx.ID()
			notices[env.Tx.Client] = append(notices[env.Tx.Client], substrate.CommitEntry{TxID: id, Aborted: aborted})
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
	p.state.Advance()
	p.c.Notify(ctx, notices)
}
