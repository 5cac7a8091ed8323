package core

import (
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// vectorBuild accumulates per-org results for one transaction at its
// corresponding organization's delegate (§4.4): one result per organization
// in arrival order, a later one replacing it.
type vectorBuild struct {
	seq    uint64
	txID   types.TxID
	got    []OrgResult
	inline [2]OrgResult // got's backing for a two-org transaction
	sent   bool
}

// put records res, replacing an earlier result from the same organization.
func (vb *vectorBuild) put(res OrgResult) {
	if i := vb.index(res.Org); i >= 0 {
		vb.got[i] = res
	} else if vb.got == nil {
		vb.got = append(vb.inline[:0], res)
	} else {
		vb.got = append(vb.got, res)
	}
}

// index is the position of org's result in got, or -1.
func (vb *vectorBuild) index(org string) int {
	return slices.IndexFunc(vb.got, func(r OrgResult) bool { return r.Org == org })
}

// persistStatus tracks PERSIST quorum formation for one sequence number, by
// value in its slot; the zero value is the empty tally. Honest runs see one
// echo per sequence, one shared object, so votes for the first-seen echo's
// content key are a bitmask, one bit per consensus node, and a vote carrying
// that very object is counted without digesting anything; only a diverging
// key (byzantine sender) spills.
type persistStatus struct {
	first  *PersistEntry // the first echo voted for; key0 is its content key
	key0   crypto.Digest
	votes0 [2]uint64     // votes for key0 from consensus nodes 0..127
	more   *persistVotes // the rest, nil until a vote needs it
	// result is the echo that reached 2f+1 matching votes, nil until one
	// does: the canonical result the node adopts (§4.4 retrievability).
	result *PersistEntry
}

// persistVotes is what an honest committee of 128 or fewer never needs: hi
// holds key0's votes from nodes 128 on, sized from the committee, spill the
// votes for every other content.
type persistVotes struct {
	hi    []uint64
	spill map[crypto.Digest]map[int]bool
}

// vote records node's vote for e's content in a committee of the given size
// and returns how many distinct nodes have voted for that content so far,
// and whether node's vote is new. Votes for the first-seen content allocate
// nothing in a committee of 128 or fewer; other keys land in the spill map.
func (ps *persistStatus) vote(e *PersistEntry, node, committee int) (n int, fresh bool) {
	if ps.first == nil {
		ps.first, ps.key0 = e, e.contentKey()
	}
	key, same := ps.key0, e == ps.first
	if !same {
		key = e.contentKey()
		same = key == ps.key0
	}
	if (!same || node >= 64*len(ps.votes0)) && ps.more == nil {
		ps.more = new(persistVotes)
	}
	if !same {
		if ps.more.spill == nil {
			ps.more.spill = make(map[crypto.Digest]map[int]bool)
		}
		set := ps.more.spill[key]
		if set == nil {
			set = make(map[int]bool)
			ps.more.spill[key] = set
		}
		fresh = !set[node]
		set[node] = true
		return len(set), fresh
	}
	if node >= 64*len(ps.votes0) && ps.more.hi == nil {
		ps.more.hi = make([]uint64, (committee+63)/64-len(ps.votes0))
	}
	words, w := ps.words(node)
	bit := uint64(1) << (node % 64)
	fresh = words[w]&bit == 0
	words[w] |= bit
	n = bits.OnesCount64(ps.votes0[0]) + bits.OnesCount64(ps.votes0[1])
	if ps.more != nil {
		for _, v := range ps.more.hi {
			n += bits.OnesCount64(v)
		}
	}
	return n, fresh
}

// words returns the bitmap holding node's vote for key0 and the word's index.
func (ps *persistStatus) words(node int) ([]uint64, int) {
	if w := node / 64; w < len(ps.votes0) {
		return ps.votes0[:], w
	}
	return ps.more.hi, node/64 - len(ps.votes0)
}

// sameKey reports whether e's content is key0's.
func (ps *persistStatus) sameKey(e *PersistEntry) bool {
	return e == ps.first || e.contentKey() == ps.key0
}

// spill returns the votes for contents other than key0.
func (ps *persistStatus) spill() map[crypto.Digest]map[int]bool {
	if ps.more == nil {
		return nil
	}
	return ps.more.spill
}

// unvote takes node's vote for e's content back out of the tally.
func (ps *persistStatus) unvote(e *PersistEntry, node int) {
	if ps.sameKey(e) {
		words, w := ps.words(node)
		words[w] &^= 1 << (node % 64)
		return
	}
	key, spill := e.contentKey(), ps.spill()
	delete(spill[key], node)
	if len(spill[key]) == 0 {
		delete(spill, key)
	}
	if len(spill) == 0 && ps.more != nil {
		ps.more.spill = nil
	}
}

// only reports whether every vote in the tally is for an echo of hash.
func (ps *persistStatus) only(hash types.TxID) bool {
	return ps.spill() == nil && (ps.first == nil || ps.first.TxID == hash)
}

// clone returns a copy of the tally that shares nothing it can change.
func (ps *persistStatus) clone() persistStatus {
	c := *ps
	if ps.more != nil {
		c.more = &persistVotes{hi: slices.Clone(ps.more.hi), spill: maps.Clone(ps.more.spill)}
		for k, set := range c.more.spill {
			c.more.spill[k] = maps.Clone(set)
		}
	}
	return c
}

// pendingBlock is an agreed block a normal node is working through: msg's
// decoded ordering and ordinals, shared with every other receiver, and this
// node's records of the hashes, resolved once on arrival.
type pendingBlock struct {
	msg      *BlockMsg
	seqs     []uint64
	hashes   []types.TxID
	recs     []*txRec
	executed bool
	// refetch spaces the payload fetches of the block's missing transactions.
	refetch simnet.Timer
}

// NormalNode is one BIDL normal node: it verifies and speculatively executes
// sequenced transactions (Phase 4-1), participates in the persist protocol
// (Phase 4-2), and commits agreed blocks (Phase 5).
type NormalNode struct {
	c        *Cluster
	org      int
	orgName  string
	idxInOrg int
	ep       *simnet.Endpoint
	ctx      *simnet.Context

	// pool is the whole per-transaction index: payloads, speculative results
	// and PERSIST tallies by sequence number, marks by hash.
	pool *txPool

	base     *ledger.State
	overlay  *ledger.Overlay
	specNext uint64
	specInit bool
	// gapTimer jumps speculation across a gap that still sits at gapMark.
	gapTimer simnet.Timer
	gapMark  uint64
	nondet   *rand.Rand
	// exec[0] backs the speculative execution, exec[1] the delegate's
	// redundant one, which must not clobber the first result (applied after
	// it). A result leaves the node only as makeOrgResult's copied partition;
	// part2, the redundant run's, is only digested; signing is scratch too.
	exec    [2]contract.ExecScratch
	part2   []ledger.Write
	signing []byte

	// delegate state (first normal node of the org).
	vectors    map[types.TxID]*vectorBuild
	orgOut     map[int][]OrgResultEntry // target org → batched results
	resultOut  []ResultEntry
	flushTimer simnet.Timer

	blockBuf     map[uint64]*pendingBlock
	commitHeight uint64
	blocks       *ledger.BlockStore
	// blockFetch is the cooldown between block fetches, persistRetry the
	// commit pipeline's watchdog, onRefetch every pendingBlock's callback.
	blockFetch   simnet.Timer
	persistRetry simnet.Timer
	onRefetch    func(*simnet.Context)

	deny      map[crypto.Identity]bool
	denyVotes map[crypto.Identity]map[int]bool

	// cur is the node's place in the cluster's PERSIST stream while onStream
	// (never again once it left); cleared marks the block positions whose
	// tallies the commit in progress cleared, in clearedBuf up to 512.
	onStream   bool
	cur        streamCursor
	cleared    []uint64
	clearedBuf [8]uint64
}

// Endpoint returns the node's simnet endpoint.
func (n *NormalNode) Endpoint() *simnet.Endpoint { return n.ep }

// State exposes the committed world state (safety checks, examples).
func (n *NormalNode) State() *ledger.State { return n.base }

// CommitHeight returns the number of fully committed blocks.
func (n *NormalNode) CommitHeight() uint64 { return n.commitHeight }

// Denied reports whether the node currently denies a client.
func (n *NormalNode) Denied(c crypto.Identity) bool { return n.deny[c] }

// isDelegate reports whether this node is its organization's delegate.
func (n *NormalNode) isDelegate() bool { return n.idxInOrg == 0 }

// speaksFor reports whether this node is the delegate of tx's corresponding
// organization: the single deterministic authority for the transaction's
// delivered/executed/persisted trace stages (so traces stay identical across
// node counts) and the node that notifies its client.
func (n *NormalNode) speaksFor(tx *types.Transaction) bool {
	return n.isDelegate() && types.OrgIndex(tx.CorrespondingOrg()) == n.org
}

func newNormalNode(c *Cluster, org, idxInOrg int, seed int64) *NormalNode {
	base := c.world.View()
	n := &NormalNode{
		c:         c,
		org:       org,
		orgName:   types.OrgName(org),
		idxInOrg:  idxInOrg,
		pool:      newTxPoolOn(c.Hashes),
		base:      base,
		overlay:   ledger.NewOverlay(base),
		nondet:    rand.New(rand.NewSource(seed)),
		vectors:   make(map[types.TxID]*vectorBuild),
		orgOut:    make(map[int][]OrgResultEntry),
		blockBuf:  make(map[uint64]*pendingBlock),
		blocks:    ledger.NewBlockStore(),
		deny:      make(map[crypto.Identity]bool),
		denyVotes: make(map[crypto.Identity]map[int]bool),
	}
	n.gapTimer = simnet.NewTimer(n.bound(n.jumpGap))
	n.flushTimer = simnet.NewTimer(n.bound(n.flushResults))
	n.persistRetry = simnet.NewTimer(n.bound(n.retryPersist))
	n.onRefetch = n.bound(n.processBlocks)
	n.cleared = n.clearedBuf[:0]
	n.onStream = c.stream.steps.Join(&n.cur.pos, n) && c.stream.done.Join(&n.cur.height, n)
	return n
}

// bound returns fn as a timer callback bound to the timer's activation.
func (n *NormalNode) bound(fn func()) func(*simnet.Context) {
	return func(c *simnet.Context) { n.bind(c, fn) }
}

func (n *NormalNode) bind(ctx *simnet.Context, fn func()) {
	prev := n.ctx
	n.ctx = ctx
	defer func() { n.ctx = prev }()
	fn()
}

// OnRestart implements simnet.Restarter: it re-arms the commit pipeline's
// watchdog and the gap jump. Committed state — the base ledger and block
// store — survives like a disk image; missed blocks are caught up through
// the leader's periodic ChainStatus advertisements and the persist-retry
// watchdog.
func (n *NormalNode) OnRestart(ctx *simnet.Context) {
	n.bind(ctx, func() {
		if _, pending := n.blockBuf[n.commitHeight]; pending {
			n.armPersistRetry()
		}
		if _, pooled := n.pool.lowestFrom(0); pooled {
			n.armGapTimer()
		}
	})
}

// OnMessage implements simnet.Handler.
func (n *NormalNode) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	n.bind(ctx, func() {
		switch m := msg.(type) {
		case *SeqBatch:
			n.onSeqBatch(m)
		case *BlockMsg:
			n.onBlock(m)
		case *OrgResultMsg:
			n.onOrgResults(m)
		case *PersistMsg:
			n.onPersist(from, m)
		case *FetchResp:
			n.onFetchResp(m)
		case *DenyUpdate:
			n.onDenyUpdate(m)
		case *ChainStatus:
			n.onChainStatus(from, m)
		}
	})
}

// --- Phase 4-1: verification and speculative execution ---------------------

func (n *NormalNode) onSeqBatch(m *SeqBatch) {
	for i, st := range m.Txns {
		n.ctx.Elapse(n.c.Cfg.Costs.Hash(st.Tx.Size()))
		if n.deny[st.Tx.Client] {
			// Denylisted clients' multicasts are ignored outright, so
			// their crafted transactions stop occupying sequence slots.
			continue
		}
		ord := m.ords.Intern(n.pool.hashes, i, st.Tx.ID())
		res := n.pool.addOrd(st.Seq, st.Tx, ord)
		if res == poolDupSeq {
			if r := n.pool.get(ord); r.agreed && r.agreedSeq == st.Seq {
				// Consensus agreed on this transaction: it evicts the
				// crafted squatter occupying its slot.
				n.pool.replaceOrd(st.Seq, st.Tx, ord)
				res = poolAdded
			}
		}
		if res != poolAdded {
			// A replay, or a second claim on the sequence number:
			// first-received wins (§4.1) and the loser is discarded.
			continue
		}
		if tr := n.c.Tracer; tr != nil && n.speaksFor(st.Tx) {
			tr.TxStage(st.Tx.ID(), trace.StageDelivered, int(n.ep.ID()), n.ctx.Now())
		}
		if n.specInit && st.Seq < n.specNext {
			// A gap filled in late (loss or attack): speculation beyond
			// it used the wrong order. Reset (§4.3 fallback semantics).
			n.specReset()
		}
	}
	n.trySpeculate()
}

// verifyTx runs the §4.1 signature check (step 3) once per transaction; r is
// tx's record.
func (n *NormalNode) verifyTx(tx *types.Transaction, r *txRec) bool {
	if !r.checked {
		r.checked = true
		n.ctx.Elapse(n.c.Cfg.Costs.SigVerify)
		r.invalid = !tx.VerifySig(n.c.Scheme) || !n.c.Scheme.Known(tx.Client)
	}
	return !r.invalid
}

// trySpeculate executes pooled transactions in sequence-number order
// (Phase 4-1). Related transactions execute against the speculative
// overlay; unrelated ones just advance the pointer.
func (n *NormalNode) trySpeculate() {
	if !n.specInit {
		// Bootstrap: start from the lowest pooled sequence.
		lowest, ok := n.pool.lowestFrom(0)
		if !ok {
			return
		}
		n.specNext = lowest
		n.specInit = true
	}
	for {
		s := n.pool.slotAt(n.specNext)
		if s == nil {
			n.armGapTimer()
			return
		}
		seq, tx, r := n.specNext, s.tx, s.rec
		n.specNext++
		if !tx.RelatedTo(n.orgName) {
			continue
		}
		if n.deny[tx.Client] || n.c.Cfg.DisableSpeculation {
			// Denied clients lose speculation but keep liveness:
			// their agreed transactions re-execute at commit (§4.6).
			// With speculation disabled (ablation), every transaction
			// takes the commit-time sequential path.
			continue
		}
		if !n.verifyTx(tx, r) {
			// Invalid related transactions still need a persist round
			// so that every node can commit them as aborted: the
			// related organizations vote "invalid".
			if n.isDelegate() {
				n.routeInvalid(seq, tx)
			}
			continue
		}
		n.executeSpec(seq, tx, r)
	}
}

// routeInvalid emits a signed aborted result for an invalid related
// transaction, letting its persist round complete with an abort verdict.
func (n *NormalNode) routeInvalid(seq uint64, tx *types.Transaction) {
	rw := &ledger.RWSet{Aborted: true}
	dig := rw.Digest()
	n.ctx.Elapse(n.c.Cfg.Costs.MACCompute)
	n.signing = appendOrgResult(n.signing[:0], seq, tx.ID(), n.orgName, dig, true, false)
	sig, err := n.c.Scheme.Sign(crypto.Identity(n.orgName), n.signing)
	if err != nil {
		return
	}
	n.routeOrgResult(seq, tx, OrgResult{Org: n.orgName, Digest: dig, Aborted: true, Sig: sig})
}

// structOK cheaply validates a transaction's structure: it must name at
// least one related organization and only organizations that exist. A
// transaction failing this can never complete a persist round, so every
// node marks it invalid locally instead of waiting.
func (n *NormalNode) structOK(tx *types.Transaction) bool {
	if len(tx.Orgs) == 0 {
		return false
	}
	for _, o := range tx.Orgs {
		idx := types.OrgIndex(o)
		if idx < 0 || idx >= len(n.c.Orgs) {
			return false
		}
	}
	return true
}

// armGapTimer jumps speculation across a persistent gap (lost packet, a
// crafted-transaction hole, or a leadership-change renumbering).
func (n *NormalNode) armGapTimer() {
	if n.gapTimer.Arm(n.ctx, 4*seqFlushInterval) {
		n.gapMark = n.specNext
	}
}

func (n *NormalNode) jumpGap() {
	if n.specNext != n.gapMark {
		n.trySpeculate()
		return
	}
	// Jump to the next available sequence.
	if next, found := n.pool.lowestFrom(n.specNext + 1); found && next > n.specNext {
		n.specNext = next
		n.trySpeculate()
	}
}

// executeSpec speculatively executes one related transaction and feeds the
// result into the persist pipeline.
func (n *NormalNode) executeSpec(seq uint64, tx *types.Transaction, r *txRec) {
	if tr := n.c.Tracer; tr != nil && n.speaksFor(tx) {
		tr.TxStage(tx.ID(), trace.StageExecStart, int(n.ep.ID()), n.ctx.Now())
	}
	n.execute(seq, tx, r, true)
	atomic.AddUint64(&n.c.Collector.Speculated, 1)
	if tr := n.c.Tracer; tr != nil && n.speaksFor(tx) {
		tr.TxStage(tx.ID(), trace.StageExecuted, int(n.ep.ID()), n.ctx.Now())
	}
}

// execute runs related transaction tx, pooled as r, at seq against the
// overlay and, at the delegate, routes this org's signed partition of the
// result. vote false keeps the delegate silent: a re-execution does not vote
// again for a result that already persisted.
func (n *NormalNode) execute(seq uint64, tx *types.Transaction, r *txRec, vote bool) {
	n.ctx.Elapse(n.c.Cfg.Costs.ExecTxn)
	rw := n.c.Registry.ExecuteTransient(n.overlay, tx, n.nondet, &n.exec[0])
	ns := n.pool.note(seq)
	ns.spec, ns.orgRes = r, nil
	// The redundant non-determinism check must run against the same
	// pre-state, before the first execution's writes land in the overlay.
	if vote && n.isDelegate() {
		res := n.makeOrgResult(seq, tx, rw)
		ns.orgRes = &res
	}
	n.overlayApply(rw)
	if ns.orgRes != nil {
		n.routeOrgResult(seq, tx, *ns.orgRes)
	}
}

// makeOrgResult extracts this org's owned partition from an execution and
// redundantly re-executes the transaction against the same pre-state to
// detect non-determinism: data races (modelled by node-local randomness)
// make the two runs diverge. Treating every transaction as potentially
// non-deterministic is §4.4's premise. The redundant run's CPU cost is
// folded into ExecTxn (DESIGN.md). Must be called before overlayApply(rw).
func (n *NormalNode) makeOrgResult(seq uint64, tx *types.Transaction, rw *ledger.RWSet) OrgResult {
	owner := n.c.keyOwner
	part := contract.PartitionWrites(nil, rw, owner, tx, n.orgName)
	rw2 := n.c.Registry.ExecuteTransient(n.overlay, tx, n.nondet, &n.exec[1])
	n.part2 = contract.PartitionWrites(n.part2[:0], rw2, owner, tx, n.orgName)
	d1 := (&ledger.RWSet{Writes: part, Aborted: rw.Aborted}).Digest()
	d2 := (&ledger.RWSet{Writes: n.part2, Aborted: rw2.Aborted}).Digest()
	inconsistent := d1 != d2
	n.ctx.Elapse(n.c.Cfg.Costs.MACCompute)
	n.signing = appendOrgResult(n.signing[:0], seq, tx.ID(), n.orgName, d1, rw.Aborted, inconsistent)
	sig, err := n.c.Scheme.Sign(crypto.Identity(n.orgName), n.signing)
	if err != nil {
		panic(err)
	}
	return OrgResult{Org: n.orgName, Digest: d1, Writes: part,
		Aborted: rw.Aborted, Inconsistent: inconsistent, Sig: sig, wdOK: true}
}

// routeOrgResult sends a signed partition to the corresponding org's
// delegate (or feeds it locally when this org is o_c).
func (n *NormalNode) routeOrgResult(seq uint64, tx *types.Transaction, res OrgResult) {
	ocOrg := types.OrgIndex(tx.CorrespondingOrg())
	if ocOrg == n.org {
		n.feedVector(seq, tx, res)
	} else {
		n.orgOut[ocOrg] = append(n.orgOut[ocOrg], OrgResultEntry{Seq: seq, TxID: tx.ID(), Result: res})
		n.flushTimer.Arm(n.ctx, resultFlushInterval)
	}
}

func (n *NormalNode) overlayApply(rw *ledger.RWSet) {
	if rw.Aborted {
		return
	}
	for _, w := range rw.Writes {
		if w.Delete {
			n.overlay.Delete(w.Key)
		} else {
			n.overlay.Put(w.Key, w.Val, ledger.Version{})
		}
	}
}

// specReset falls back to the committed state (Phase 5 fallback, §4.3).
// Discarded speculative results count as re-executions: the same
// transactions run again from the reset point.
func (n *NormalNode) specReset() {
	atomic.AddUint64(&n.c.Collector.Reexecuted, uint64(n.pool.dropSpecs()))
	n.overlay.Discard()
	if lo, ok := n.pool.lowestFrom(0); ok {
		n.specNext = lo
	}
}

// --- Phase 4-2: approve and persist -----------------------------------------

// feedVector accumulates org results at the corresponding org's delegate.
// A transaction re-sequenced across leadership terms may collect votes under
// several sequence numbers; signatures bind org results to a specific
// sequence, so the build follows the agreed one: when a vote for the agreed
// sequence arrives and the current build is for a stale sequence, the build
// restarts.
func (n *NormalNode) feedVector(seq uint64, tx *types.Transaction, res OrgResult) {
	vb := n.vectors[tx.ID()]
	if vb != nil && vb.seq != seq {
		if r := n.pool.known(tx.ID()); r.agreed && r.agreedSeq == seq {
			vb = nil // stale build for a superseded sequence
		} else {
			return // keep the existing build; commit re-routes if needed
		}
	}
	if vb == nil {
		vb = &vectorBuild{seq: seq, txID: tx.ID()}
		n.vectors[tx.ID()] = vb
	}
	if tx.RelatedTo(res.Org) {
		vb.put(res)
	}
	n.tryFinishVector(tx, vb)
}

// tryFinishVector emits the approved vector once every related org's result
// is present, its partitions in organization-name order.
func (n *NormalNode) tryFinishVector(tx *types.Transaction, vb *vectorBuild) {
	if vb.sent {
		return
	}
	for _, o := range tx.Orgs {
		if vb.index(o) < 0 {
			return
		}
	}
	vb.sent = true
	entry := ResultEntry{Seq: vb.seq, TxID: vb.txID, Vector: make([]OrgResult, 0, len(tx.Orgs))}
	for _, r := range vb.got {
		if tx.RelatedTo(r.Org) {
			entry.Vector = append(entry.Vector, r)
		}
	}
	slices.SortFunc(entry.Vector, func(a, b OrgResult) int { return strings.Compare(a.Org, b.Org) })
	entry.warm(n.base, n.pool.hashes)
	n.resultOut = append(n.resultOut, entry)
	n.flushTimer.Arm(n.ctx, resultFlushInterval)
}

// onOrgResults receives other organizations' signed results (delegate only).
func (n *NormalNode) onOrgResults(m *OrgResultMsg) {
	if !n.isDelegate() {
		return
	}
	for _, e := range m.Entries {
		// The signature covers (seq, TxID, org, digest, flags), not the
		// payload, so a forged partition is dropped before it can be
		// stashed into a vector whose payload is not here yet.
		n.ctx.Elapse(n.c.Cfg.Costs.MACVerify)
		n.signing = appendOrgResult(n.signing[:0], e.Seq, e.TxID, e.Result.Org, e.Result.Digest, e.Result.Aborted, e.Result.Inconsistent)
		if !n.c.Scheme.Verify(crypto.Identity(e.Result.Org), n.signing, e.Result.Sig) {
			continue
		}
		tx, ok := n.pool.byID(e.TxID)
		if !ok {
			// Payload not here yet; buffer through the vector with
			// unknown needs once it arrives. Simplest: stash under
			// a provisional build keyed by TxID.
			vb := n.vectors[e.TxID]
			if vb == nil {
				vb = &vectorBuild{seq: e.Seq, txID: e.TxID}
				n.vectors[e.TxID] = vb
			}
			vb.put(e.Result)
			continue
		}
		n.feedVector(e.Seq, tx, e.Result)
	}
}

// flushResults sends batched org results to peer delegates and approved
// vectors to all consensus nodes (the multi-write, §4.4).
func (n *NormalNode) flushResults() {
	if len(n.orgOut) > 0 {
		orgs := make([]int, 0, len(n.orgOut))
		for o := range n.orgOut {
			orgs = append(orgs, o)
		}
		sort.Ints(orgs)
		for _, o := range orgs {
			entries := n.orgOut[o]
			delete(n.orgOut, o)
			// One batch signature per message.
			n.ctx.Elapse(n.c.Cfg.Costs.SigSign)
			n.ctx.Send(n.c.Orgs[o][0].ep.ID(), &OrgResultMsg{Entries: entries})
		}
	}
	if len(n.resultOut) > 0 {
		msg := &ResultMsg{Entries: n.resultOut}
		n.resultOut = nil
		n.ctx.Elapse(n.c.Cfg.Costs.SigSign)
		for _, cn := range n.c.ConsNodes {
			n.ctx.Send(cn.Ep.ID(), msg)
		}
	}
}

// onPersist counts PERSIST echoes; 2f+1 matching vectors mark the result
// persisted (Algo 2 lines 15-18). A node on the cluster's PERSIST stream
// adopts what the stream's tally recorded for the message instead.
func (n *NormalNode) onPersist(from simnet.NodeID, m *PersistMsg) {
	atomic.AddUint64(&n.c.Collector.PersistMsgs, 1)
	cn, ok := n.c.Cons.Index(from)
	if !ok || cn != m.Node {
		return
	}
	// PERSIST batches are authenticated with the hybrid MAC mechanism
	// (§4.1 applies it to replica-to-replica traffic as in Aardvark):
	// verification is MAC-rate, so large consensus clusters do not choke
	// normal nodes on persist-echo verification.
	n.ctx.Elapse(n.c.Cfg.Costs.MACVerify)
	if !m.authentic(n.c.Scheme) {
		atomic.AddUint64(&n.c.Collector.PersistBadSigs, 1)
		return
	}
	progressed, following := false, false
	if n.onStream {
		progressed, following = n.c.stream.step(n, m)
		n.onStream = following
	}
	if !following {
		if p := n.c.probe; p != nil {
			p.visits.Add(uint64(len(m.Entries)))
		}
		for _, e := range m.Entries {
			if ps := n.tally(e); ps != nil {
				if k, _ := ps.vote(e, m.Node, n.c.Cfg.NumConsensus); k >= n.c.Cfg.quorum() {
					n.adopt(ps, e, m.Node)
					progressed = true
				}
			}
		}
	}
	if progressed {
		n.processBlocks()
	}
}

// tally returns the tally e's vote goes into, nil when e's hash committed or
// its sequence number's result is already adopted.
func (n *NormalNode) tally(e *PersistEntry) *persistStatus {
	if n.committedHash(e) {
		return nil
	}
	ps := &n.pool.note(e.Seq).persist
	if ps.result != nil {
		return nil
	}
	return ps
}

// committedHash reports whether e's hash committed at the node. A receiver
// never interns: a hash its table lacks was never committed.
func (n *NormalNode) committedHash(e *PersistEntry) bool {
	ord, ok := e.ord.Lookup(n.pool.hashes, 0, e.TxID)
	return ok && n.pool.get(ord).committed
}

// adopt makes e, whose quorum from's message completed, the result ps holds.
func (n *NormalNode) adopt(ps *persistStatus, e *PersistEntry, from int) {
	ps.result = e
	if p := n.c.probe; p != nil && p.Adopted != nil {
		p.Adopted(n.ep.ID(), e.Seq, n.ctx.Now(), from)
	}
	if n.isDelegate() {
		if vb, ok := n.vectors[e.TxID]; ok && vb.sent {
			delete(n.vectors, e.TxID)
			if tr := n.c.Tracer; tr != nil {
				tr.TxStage(e.TxID, trace.StagePersisted, int(n.ep.ID()), n.ctx.Now())
			}
		}
	}
}

// install makes the tallies of state, the stream's where the node left it,
// that the node keeps its own. state is the node's alone: its tallies move
// in uncloned.
func (n *NormalNode) install(state []seqTally, skip map[uint64]bool) {
	for i := range state {
		if st := &state[i]; n.keeps(st.seq, &st.ps, skip) {
			n.pool.note(st.seq).persist = st.ps
		}
	}
}

// keeps reports whether the node takes ps as seq's tally when it leaves the
// stream: not for sequence numbers in skip or with a result, nor a tally
// holding only votes it never counts (for a hash it committed).
func (n *NormalNode) keeps(seq uint64, ps *persistStatus, skip map[uint64]bool) bool {
	if ps.first == nil || skip[seq] || (ps.spill() == nil && n.committedHash(ps.first)) {
		return false
	}
	ns := n.pool.noted(seq)
	return ns == nil || ns.persist.result == nil
}

// --- Phase 5: commit --------------------------------------------------------

func (n *NormalNode) onBlock(m *BlockMsg) {
	if _, ok := n.blockBuf[m.Number]; ok || m.Number < n.commitHeight {
		return
	}
	seqs, hashes, ok := n.c.certified(m, n.ctx)
	if !ok {
		return
	}
	// An agreed transaction is authoritative for its sequence slot and
	// displaces any crafted squatter the first-received-wins rule let in
	// (§4.1 vs Def 4.1).
	recs := make([]*txRec, len(hashes))
	for i, h := range hashes {
		r, squatter := n.pool.agree(seqs[i], m.ords.Intern(n.pool.hashes, i, h))
		if squatter != nil {
			atomic.AddUint64(&n.c.Collector.Conflicts, 1)
		}
		r.agreedSeq, recs[i] = seqs[i], r
	}
	n.blockBuf[m.Number] = &pendingBlock{msg: m, seqs: seqs, hashes: hashes, recs: recs, refetch: simnet.NewTimer(n.onRefetch)}
	n.processBlocks()
}

// processBlocks drives the in-order commit pipeline.
func (n *NormalNode) processBlocks() {
	for {
		pb, ok := n.blockBuf[n.commitHeight]
		if !ok {
			return
		}
		if !n.tryCommitBlock(pb) {
			return
		}
		delete(n.blockBuf, n.commitHeight)
		n.commitHeight++
	}
}

// tryCommitBlock returns true when the block fully committed. Every pass
// reads the records in pb.recs: no attempt looks a hash up again.
func (n *NormalNode) tryCommitBlock(pb *pendingBlock) bool {
	// Step 1: ensure payloads. Relatedness is only knowable with the
	// payload, so missing ones are fetched from the block's proposer.
	var missing []types.TxID
	for i, r := range pb.recs {
		if !r.pooled && !r.committed {
			missing = append(missing, pb.hashes[i])
		}
	}
	if len(missing) > 0 {
		if !pb.refetch.Armed() {
			target := n.c.ConsNodes[n.c.policy.Leader(pb.msg.Cert.View)]
			n.ctx.Send(target.Ep.ID(), &FetchReq{Hashes: missing})
			// Retry against other consensus nodes if the proposer is
			// unresponsive.
			pb.refetch.Arm(n.ctx, 4*seqFlushInterval+2*n.c.Cfg.Topology.IntraLatency)
		}
		return false
	}

	// Steps 2 and 3 run once, on the first attempt that holds every payload:
	// a later one would reach the same verdicts (kept per hash) to no effect.
	if !pb.executed {
		pb.executed = true
		n.executeBlock(pb)
	}

	// Step 4: wait until every valid transaction's result persisted.
	// Every node applies every committed write set (full world-state
	// replication, as in HLF; the host holds equal states once, commitWorld), so
	// commit gates on all entries, not only related ones.
	for i, r := range pb.recs {
		if r.committed || r.invalid {
			continue
		}
		if !n.pool.persisted(pb.seqs[i]) {
			n.armPersistRetry()
			return false
		}
	}

	// Step 5: apply and commit.
	n.ctx.Elapse(n.c.Cfg.Costs.BlockOverhead +
		time.Duration(len(pb.hashes))*n.c.Cfg.Costs.CommitTxn)
	notices := make(map[crypto.Identity][]substrate.CommitEntry)
	outs := n.c.outs[:0]
	for i, r := range pb.recs {
		if r.committed {
			outs = append(outs, nil)
			continue
		}
		seq := pb.seqs[i]
		tx := n.pool.payload(r)
		var res *PersistEntry
		if !r.invalid {
			if res = n.pool.noted(seq).persist.result; !res.Consistent {
				atomic.AddUint64(&n.c.Collector.NondetAborts, 1)
			}
		}
		outs = append(outs, outcome(res))
		aborted := outs[i] == nil
		n.pool.commit(r, pb.msg.ords.Intern(n.pool.hashes, i, pb.hashes[i]))
		n.pool.clearNote(seq)
		if n.onStream {
			for i/64 >= len(n.cleared) {
				n.cleared = append(n.cleared, 0)
			}
			n.cleared[i/64] |= 1 << (i % 64)
		}
		if tx != nil && n.speaksFor(tx) {
			notices[tx.Client] = append(notices[tx.Client], substrate.CommitEntry{TxID: pb.hashes[i], Aborted: aborted})
		}
	}
	commitWorld(n.base, pb.msg.Number, outs)
	clear(outs)
	n.c.outs = outs[:0]
	if n.onStream {
		n.onStream = n.c.stream.committed(n, pb, n.cleared)
	}
	clear(n.cleared)
	blk, digest := pb.msg.block(n.blocks.LastDigest())
	if err := n.blocks.AppendHashed(blk, digest); err != nil {
		n.c.Violation("block append: " + err.Error())
	}
	n.c.Notify(n.ctx, notices)

	// Resume speculation past the block (null blocks carry no sequences).
	if len(pb.seqs) > 0 {
		if last := pb.seqs[len(pb.seqs)-1]; n.specNext <= last {
			n.specNext = last + 1
		}
	}
	n.trySpeculate()
	return true
}

// executeBlock classifies the block's related entries (step 2) and, unless
// each of them was speculated cleanly, re-executes them in order (step 3).
func (n *NormalNode) executeBlock(pb *pendingBlock) {
	var related []int // indexes into pb.recs
	clean := true
	for i, r := range pb.recs {
		if r.committed {
			continue
		}
		tx := n.pool.payload(r)
		if !n.structOK(tx) {
			r.invalid, r.checked = true, true
			continue
		}
		if !tx.RelatedTo(n.orgName) {
			continue
		}
		seq := pb.seqs[i]
		if !n.verifyTx(tx, r) {
			// Invalid: vote aborted so the persist round completes.
			if n.isDelegate() && !n.pool.persisted(seq) {
				n.routeInvalid(seq, tx)
			}
			continue
		}
		if ns := n.pool.noted(seq); ns == nil || ns.spec != r {
			clean = false
		}
		related = append(related, i)
	}
	if clean {
		atomic.AddUint64(&n.c.Collector.SpecMatched, uint64(len(related)))
		return
	}
	// Not cleanly speculated: fall back to the sequential workflow, discard
	// all speculative state and re-execute every related transaction of the
	// block in order against the committed state (§4.3 Phase 5). Executing
	// only the missing ones would be wrong — the live overlay may contain
	// writes of later-sequenced transactions.
	n.specReset()
	for _, i := range related {
		seq, r := pb.seqs[i], pb.recs[i]
		n.execute(seq, n.pool.payload(r), r, !n.pool.persisted(seq))
		atomic.AddUint64(&n.c.Collector.Reexecuted, 1)
	}
	// Results flushed immediately: commit is waiting on them.
	n.flushResults()
}

// onChainStatus fetches blocks this node missed (BlockMsg loss recovery).
func (n *NormalNode) onChainStatus(from simnet.NodeID, m *ChainStatus) {
	if n.blockFetch.Armed() || !missesBlock(n.commitHeight, m.Height, n.blockBuf) {
		return
	}
	n.ctx.Send(from, &BlockFetchReq{From: n.commitHeight, To: m.Height})
	n.blockFetch.Arm(n.ctx, 2*n.c.Cfg.BlockTimeout)
}

func (n *NormalNode) onFetchResp(m *FetchResp) {
	n.onSeqBatch(&SeqBatch{Txns: m.Txns})
	n.processBlocks()
}

// armPersistRetry arms a watchdog over the commit pipeline's head block:
// while any block is pending, the node periodically re-requests stored
// PERSIST entries from all consensus nodes, re-routes its own signed
// partitions, and (as corresponding-org delegate) re-sends completed
// vectors — recovering persist rounds stalled by packet loss.
func (n *NormalNode) armPersistRetry() {
	n.persistRetry.Arm(n.ctx, 2*n.c.Cfg.BlockTimeout)
}

func (n *NormalNode) retryPersist() {
	pb, ok := n.blockBuf[n.commitHeight]
	if !ok {
		return // pipeline empty; the next stall re-arms
	}
	var stalled []uint64
	for i, r := range pb.recs {
		if r.committed || r.invalid {
			continue
		}
		seq := pb.seqs[i]
		if !n.pool.persisted(seq) {
			// Lazy fallback: a quiet persist round may mean the
			// transaction is invalid and its related orgs already
			// moved on. Any node can verify the client signature
			// itself (normally skipped for unrelated transactions
			// to save CPU, §4.1); an invalid result unblocks the
			// commit without a persist round.
			tx := n.pool.payload(r)
			if tx != nil && !n.verifyTx(tx, r) {
				continue
			}
			stalled = append(stalled, seq)
			if tx != nil && tx.RelatedTo(n.orgName) && n.isDelegate() {
				if ns := n.pool.noted(seq); ns != nil && ns.orgRes != nil {
					n.routeOrgResult(seq, tx, *ns.orgRes)
				}
				if vb, ok := n.vectors[pb.hashes[i]]; ok && vb.sent {
					vb.sent = false
					n.tryFinishVector(tx, vb)
				}
			}
		}
	}
	if len(stalled) > 0 {
		atomic.AddUint64(&n.c.Collector.RetransmitReqs, 1)
		n.flushResults()
		for _, cn := range n.c.ConsNodes {
			n.ctx.Send(cn.Ep.ID(), &PersistFetchReq{Seqs: stalled})
		}
	} else {
		n.processBlocks()
	}
	if _, pending := n.blockBuf[n.commitHeight]; pending {
		n.armPersistRetry()
	}
}

// onDenyUpdate applies consensus nodes' denylist updates once f+1 distinct
// nodes vouch for a client (a single Byzantine consensus node must not be
// able to deny arbitrary clients' speculation).
func (n *NormalNode) onDenyUpdate(m *DenyUpdate) {
	n.ctx.Elapse(n.c.Cfg.Costs.SigVerify)
	if !n.c.Scheme.Verify(cnIdentity(m.Node), denySigningBytes(m.Node, m.Clients), m.Sig) {
		return
	}
	for _, cl := range m.Clients {
		set := n.denyVotes[cl]
		if set == nil {
			set = make(map[int]bool)
			n.denyVotes[cl] = set
		}
		set[m.Node] = true
		if len(set) >= n.c.Cfg.F+1 {
			n.deny[cl] = true
		}
	}
}
