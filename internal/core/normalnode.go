package core

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// vectorBuild accumulates per-org results for one transaction at its
// corresponding organization's delegate (§4.4).
type vectorBuild struct {
	seq    uint64
	txID   types.TxID
	needed map[string]bool
	got    map[string]OrgResult
	start  time.Duration
	sent   bool
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
	votes0 [2]uint64 // votes for key0 from consensus nodes 0..127
	spill  map[crypto.Digest]map[int]bool
	// result is the echo that reached 2f+1 matching votes, nil until one
	// does: the canonical result the node adopts (§4.4 retrievability).
	result *PersistEntry
}

// vote records node's vote for e's content and returns how many distinct
// nodes have voted for that content so far. Votes for the first-seen content
// never allocate; other keys (and node indices outside the bitmask) land in
// the spill map.
func (ps *persistStatus) vote(e *PersistEntry, node int) int {
	if ps.first == nil {
		ps.first, ps.key0 = e, e.contentKey()
	}
	key, same := ps.key0, e == ps.first
	if !same {
		key = e.contentKey()
		same = key == ps.key0
	}
	if same && uint(node) < 64*uint(len(ps.votes0)) {
		ps.votes0[node/64] |= 1 << (node % 64)
	} else {
		if ps.spill == nil {
			ps.spill = make(map[crypto.Digest]map[int]bool)
		}
		set := ps.spill[key]
		if set == nil {
			set = make(map[int]bool)
			ps.spill[key] = set
		}
		set[node] = true
	}
	n := 0
	if ps.spill != nil {
		n = len(ps.spill[key])
	}
	if same {
		n += bits.OnesCount64(ps.votes0[0]) + bits.OnesCount64(ps.votes0[1])
	}
	return n
}

// pendingBlock is an agreed block a normal node is working through: msg's
// decoded ordering, shared with every other receiver, and this node's records
// of the hashes, resolved once on arrival.
type pendingBlock struct {
	msg      *BlockMsg
	seqs     []uint64
	hashes   []types.TxID
	recs     []*txRec
	arrived  time.Duration
	executed bool
	fetching bool
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

	// pool is the whole per-transaction index: payloads, arrival times,
	// speculative results and PERSIST tallies by sequence number, marks by hash.
	pool *txPool

	base     *ledger.State
	overlay  *ledger.Overlay
	specNext uint64
	specInit bool
	gapArmed bool
	nondet   *rand.Rand
	// execScratch backs the delegate's redundant re-execution, whose result
	// is digested and discarded within makeOrgResult — the one execution
	// site where a transient, buffer-reusing run is provably safe.
	execScratch contract.ExecScratch

	// delegate state (first normal node of the org).
	vectors   map[types.TxID]*vectorBuild
	orgOut    map[int][]OrgResultEntry // target org → batched results
	resultOut []ResultEntry
	flushArm  bool

	blockBuf        map[uint64]*pendingBlock
	commitHeight    uint64
	blocks          *ledger.BlockStore
	blockFetching   bool
	persistRetryArm bool

	deny      map[crypto.Identity]bool
	denyVotes map[crypto.Identity]map[int]bool
}

// Endpoint returns the node's simnet endpoint.
func (n *NormalNode) Endpoint() *simnet.Endpoint { return n.ep }

// State exposes the committed world state (safety checks, examples).
func (n *NormalNode) State() *ledger.State { return n.base }

// Blocks exposes the node's ledger.
func (n *NormalNode) Blocks() *ledger.BlockStore { return n.blocks }

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
	base := ledger.NewStateOn(c.Keys)
	return &NormalNode{
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
}

func (n *NormalNode) bind(ctx *simnet.Context, fn func()) {
	prev := n.ctx
	n.ctx = ctx
	defer func() { n.ctx = prev }()
	fn()
}

// OnRestart implements simnet.Restarter: every armed timer (gap jump,
// result flush, block-fetch cooldown, persist retry) died with the crash,
// so the guard flags must reset or recovery would never re-arm. Committed
// state — the base ledger and block store — survives like a disk image;
// missed blocks are caught up through the leader's periodic ChainStatus
// advertisements and the persist-retry watchdog.
func (n *NormalNode) OnRestart(ctx *simnet.Context) {
	n.bind(ctx, func() {
		n.gapArmed = false
		n.flushArm = false
		n.blockFetching = false
		n.persistRetryArm = false
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
			if r := n.pool.recs.Get(ord); r != nil && r.agreed && r.agreedSeq == st.Seq {
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
		n.pool.slotAt(st.Seq).arrival = n.ctx.Now()
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
	sig, err := n.c.Scheme.Sign(crypto.Identity(n.orgName),
		orgResultBytes(seq, tx.ID(), n.orgName, dig, true, false))
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
	if n.gapArmed {
		return
	}
	n.gapArmed = true
	at := n.specNext
	n.ctx.After(4*seqFlushInterval, func(c2 *simnet.Context) {
		n.bind(c2, func() {
			n.gapArmed = false
			if n.specNext != at {
				n.trySpeculate()
				return
			}
			// Jump to the next available sequence.
			if next, found := n.pool.lowestFrom(n.specNext + 1); found && next > n.specNext {
				n.specNext = next
				n.trySpeculate()
			}
		})
	})
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
	if s := n.pool.slotAt(seq); s.arrival >= 0 {
		n.c.Collector.Phase(metrics.PhaseVerexec, n.ctx.Now()-s.arrival)
		s.arrival = -1
	}
}

// execute runs related transaction tx, pooled as r, at seq against the
// overlay and, at the delegate, routes this org's signed partition of the
// result. vote false keeps the delegate silent: a re-execution does not vote
// again for a result that already persisted.
func (n *NormalNode) execute(seq uint64, tx *types.Transaction, r *txRec, vote bool) {
	n.ctx.Elapse(n.c.Cfg.Costs.ExecTxn)
	rw := n.c.Registry.Execute(n.overlay, tx, n.nondet)
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
	part := contract.PartitionWrites(rw, owner, tx, n.orgName)
	// The re-execution's RW set is digested below and never escapes, so the
	// transient (buffer-reusing) execution path applies.
	rw2 := n.c.Registry.ExecuteTransient(n.overlay, tx, n.nondet, &n.execScratch)
	part2 := contract.PartitionWrites(rw2, owner, tx, n.orgName)
	d1 := (&ledger.RWSet{Writes: part, Aborted: rw.Aborted}).Digest()
	d2 := (&ledger.RWSet{Writes: part2, Aborted: rw2.Aborted}).Digest()
	inconsistent := d1 != d2
	n.ctx.Elapse(n.c.Cfg.Costs.MACCompute)
	sig, err := n.c.Scheme.Sign(crypto.Identity(n.orgName),
		orgResultBytes(seq, tx.ID(), n.orgName, d1, rw.Aborted, inconsistent))
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
		n.armFlush()
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
		if r := n.pool.known(tx.ID()); r != nil && r.agreed && r.agreedSeq == seq {
			vb = nil // stale build for a superseded sequence
		} else {
			return // keep the existing build; commit re-routes if needed
		}
	}
	if vb == nil {
		vb = &vectorBuild{
			seq:   seq,
			txID:  tx.ID(),
			got:   make(map[string]OrgResult, len(tx.Orgs)),
			start: n.ctx.Now(),
		}
		n.vectors[tx.ID()] = vb
	}
	if vb.needed == nil {
		vb.needed = make(map[string]bool, len(tx.Orgs))
		for _, o := range tx.Orgs {
			vb.needed[o] = true
		}
	}
	if vb.needed[res.Org] {
		vb.got[res.Org] = res
	}
	n.tryFinishVector(tx, vb)
}

// tryFinishVector emits the approved vector once every related org's result
// is present.
func (n *NormalNode) tryFinishVector(tx *types.Transaction, vb *vectorBuild) {
	if vb.sent || vb.needed == nil {
		return
	}
	have := 0
	for o := range vb.needed {
		if _, ok := vb.got[o]; ok {
			have++
		}
	}
	if have < len(vb.needed) {
		return
	}
	vb.sent = true
	vb.start = n.ctx.Now() // persist latency measured from vector send (§4.4)
	orgs := make([]string, 0, len(vb.got))
	for o := range vb.needed {
		orgs = append(orgs, o)
	}
	sort.Strings(orgs)
	entry := ResultEntry{Seq: vb.seq, TxID: vb.txID}
	for _, o := range orgs {
		entry.Vector = append(entry.Vector, vb.got[o])
	}
	entry.warm(n.base, n.pool.hashes)
	n.resultOut = append(n.resultOut, entry)
	n.armFlush()
}

// onOrgResults receives other organizations' signed results (delegate only).
func (n *NormalNode) onOrgResults(m *OrgResultMsg) {
	if !n.isDelegate() {
		return
	}
	for _, e := range m.Entries {
		n.ctx.Elapse(n.c.Cfg.Costs.MACVerify)
		tx, ok := n.pool.byID(e.TxID)
		if !ok {
			// Payload not here yet; buffer through the vector with
			// unknown needs once it arrives. Simplest: stash under
			// a provisional build keyed by TxID.
			vb := n.vectors[e.TxID]
			if vb == nil {
				vb = &vectorBuild{seq: e.Seq, txID: e.TxID, needed: nil,
					got: make(map[string]OrgResult), start: n.ctx.Now()}
				n.vectors[e.TxID] = vb
			}
			vb.got[e.Result.Org] = e.Result
			continue
		}
		if !n.c.Scheme.Verify(crypto.Identity(e.Result.Org),
			orgResultBytes(e.Seq, e.TxID, e.Result.Org, e.Result.Digest, e.Result.Aborted, e.Result.Inconsistent), e.Result.Sig) {
			continue
		}
		n.feedVector(e.Seq, tx, e.Result)
	}
}

func (n *NormalNode) armFlush() {
	if n.flushArm {
		return
	}
	n.flushArm = true
	n.ctx.After(resultFlushInterval, func(c2 *simnet.Context) {
		n.bind(c2, func() {
			n.flushArm = false
			n.flushResults()
		})
	})
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
// persisted (Algo 2 lines 15-18).
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
	progressed := false
	for _, e := range m.Entries {
		// A receiver never interns: a hash its table lacks was never committed.
		if ord, ok := e.ord.Lookup(n.pool.hashes, 0, e.TxID); ok {
			if r := n.pool.recs.Get(ord); r != nil && r.committed {
				continue
			}
		}
		ps := &n.pool.note(e.Seq).persist
		if ps.result != nil {
			continue
		}
		if ps.vote(e, m.Node) >= n.c.Cfg.quorum() {
			ps.result = e
			progressed = true
			if n.isDelegate() {
				if vb, ok := n.vectors[e.TxID]; ok && vb.sent {
					n.c.Collector.Phase(metrics.PhasePersist, n.ctx.Now()-vb.start)
					delete(n.vectors, e.TxID)
					if tr := n.c.Tracer; tr != nil {
						tr.TxStage(e.TxID, trace.StagePersisted, int(n.ep.ID()), n.ctx.Now())
					}
				}
			}
		}
	}
	if progressed {
		n.processBlocks()
	}
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
		r, squatter := n.pool.agree(seqs[i], h)
		if squatter != nil {
			atomic.AddUint64(&n.c.Collector.Conflicts, 1)
		}
		r.agreedSeq, recs[i] = seqs[i], r
	}
	n.blockBuf[m.Number] = &pendingBlock{msg: m, seqs: seqs, hashes: hashes, recs: recs, arrived: n.ctx.Now()}
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
		if !pb.fetching {
			pb.fetching = true
			target := n.c.ConsNodes[n.c.policy.Leader(pb.msg.Cert.View)]
			n.ctx.Send(target.Ep.ID(), &FetchReq{Hashes: missing})
			// Retry against other consensus nodes if the proposer is
			// unresponsive.
			n.ctx.After(4*seqFlushInterval+2*n.c.Cfg.Topology.IntraLatency, func(c2 *simnet.Context) {
				n.bind(c2, func() { pb.fetching = false; n.processBlocks() })
			})
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
	// replication, as in HLF), so commit gates on all entries, not only
	// related ones.
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
	notices := make(map[crypto.Identity][]CommitEntry)
	for i, r := range pb.recs {
		if r.committed {
			continue
		}
		seq := pb.seqs[i]
		tx := n.pool.payload(r)
		aborted := r.invalid
		if !aborted {
			if res := n.pool.noted(seq).persist.result; res.Consistent && !res.Aborted {
				n.base.ApplyResolved(res.Writes, res.kids, ledger.Version{Block: pb.msg.Number, Tx: i})
			} else {
				aborted = true
				if !res.Consistent {
					atomic.AddUint64(&n.c.Collector.NondetAborts, 1)
				}
			}
		}
		n.pool.commit(r)
		n.pool.clearNote(seq)
		if tx != nil && n.speaksFor(tx) {
			notices[tx.Client] = append(notices[tx.Client], CommitEntry{TxID: pb.hashes[i], Aborted: aborted})
		}
	}
	blk, digest := pb.msg.block(n.blocks.LastDigest())
	if err := n.blocks.AppendHashed(blk, digest); err != nil {
		n.c.Violation("block append: " + err.Error())
	}
	n.c.Collector.Phase(metrics.PhaseCommit, n.ctx.Now()-pb.arrived)

	clients := make([]crypto.Identity, 0, len(notices))
	for cl := range notices {
		clients = append(clients, cl)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	for _, cl := range clients {
		if ep, ok := n.c.ClientEndpoint(cl); ok {
			n.ctx.Send(ep, &CommitNotice{Entries: notices[cl]})
		}
	}

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
	if n.blockFetching || !missesBlock(n.commitHeight, m.Height, n.blockBuf) {
		return
	}
	n.blockFetching = true
	n.ctx.Send(from, &BlockFetchReq{From: n.commitHeight, To: m.Height})
	n.ctx.After(2*n.c.Cfg.BlockTimeout, func(c2 *simnet.Context) {
		n.bind(c2, func() { n.blockFetching = false })
	})
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
	if n.persistRetryArm {
		return
	}
	n.persistRetryArm = true
	n.ctx.After(2*n.c.Cfg.BlockTimeout, func(c2 *simnet.Context) {
		n.bind(c2, func() {
			n.persistRetryArm = false
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
					c2.Send(cn.Ep.ID(), &PersistFetchReq{Seqs: stalled})
				}
			} else {
				n.processBlocks()
			}
			if _, pending := n.blockBuf[n.commitHeight]; pending {
				n.armPersistRetry()
			}
		})
	})
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
