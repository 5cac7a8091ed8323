package core

import (
	"encoding/binary"
	"maps"
	"sort"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simhost"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// Multicast group names.
const (
	groupTxns    = "bidl/txns"    // sequencer multicast: all CNs + NNs
	groupBlocks  = "bidl/blocks"  // block dissemination: all NNs + CNs
	groupPersist = "bidl/persist" // PERSIST echoes: all NNs
)

// deliveredBlock is an agreed-but-not-yet-processed consensus decision.
type deliveredBlock struct {
	seqs   []uint64
	hashes []types.TxID
	cert   *types.Certificate
	at     time.Duration
}

// ConsNode is one BIDL consensus node: it hosts the blackbox BFT replica
// (Phase 3), forms block proposals from sequenced transactions, assembles
// and disseminates agreed blocks, echoes PERSIST messages (Phase 4-2), and
// shepherds the workflow (§4.5–§4.6).
type ConsNode struct {
	// Host is the replica transport: Idx, Ep, the current activation Ctx,
	// the hosted replica Rep, and the transport half of consensus.Host.
	simhost.Host
	c   *Cluster
	org int

	pool *txPool
	// auth records the sequence assignments received from this node's own
	// co-located sequencer: the leader proposes exactly these (Def 4.1
	// makes the proposal authoritative), never pool entries that a racing
	// broadcaster planted at future slots.
	auth map[uint64]types.TxID
	// watermark: sequence numbers <= watermark have been proposed (or
	// abandoned to an older leadership term).
	watermark uint64
	maxSeen   uint64
	// proposeTimer proposes a partial block if the watermark still sits at
	// proposeMark; statusTimer is the chain-status ticker.
	proposeTimer simnet.Timer
	proposeMark  uint64
	statusTimer  simnet.Timer
	// Last sequencer-activation parameters, re-asserted by the status
	// ticker: the handoff message itself can be lost to a drop fault.
	seqActView  uint64
	seqActStart uint64

	// delivered consensus decisions by block number; chainHeight is the
	// next block number to process.
	delivered   map[uint64]*deliveredBlock
	chainHeight uint64
	blockFetch  simnet.Timer // cooldown between block fetches
	blocks      *ledger.BlockStore
	// proposals holds, per undelivered consensus sequence, the ordering
	// Proposed decoded, so that Deliver of those very bytes reuses it.
	proposals map[uint64]proposal

	// Per sequence number the pool keeps the proposed or agreed hash, the
	// accepted echo and the first waiting vector (consSlot), overflow the
	// vectors that wait behind it in arrival order: result vectors matching
	// a proposal persist immediately (Algo 1 line 17), which is why the
	// persist round is masked by the consensus phase (§4.4).
	overflow     map[uint64][]*ResultEntry
	persistOut   []*PersistEntry
	persistTimer simnet.Timer
	// signing is scratch for a partition's signed bytes (appendOrgResult).
	signing []byte

	// shepherding state (§4.5/§4.6).
	suspects    map[crypto.Identity]map[int]bool
	maliceVotes map[crypto.Identity]bool
	denylist    map[crypto.Identity]bool
	viewConf    int // conflicts observed this view
	viewTotal   int // transactions agreed this view
	viewMis     int // result mismatches this view
	vcRequested bool

	// watchlist holds client-retransmitted transactions pending the §4.5
	// liveness check.
	watch map[types.TxID]bool
}

// Denylist returns the node's current denylist (test inspection).
func (n *ConsNode) Denylist() map[crypto.Identity]bool { return n.denylist }

func newConsNode(c *Cluster, org int) *ConsNode {
	n := &ConsNode{
		c:           c,
		org:         org,
		pool:        newTxPoolOn(c.Hashes),
		auth:        make(map[uint64]types.TxID),
		delivered:   make(map[uint64]*deliveredBlock),
		proposals:   make(map[uint64]proposal),
		overflow:    make(map[uint64][]*ResultEntry),
		blocks:      ledger.NewBlockStore(),
		suspects:    make(map[crypto.Identity]map[int]bool),
		maliceVotes: make(map[crypto.Identity]bool),
		denylist:    make(map[crypto.Identity]bool),
		watch:       make(map[types.TxID]bool),
	}
	n.proposeTimer = n.Timer(n.proposePartial)
	n.statusTimer = n.Timer(n.advertiseStatus)
	n.persistTimer = n.Timer(n.flushPersist)
	return n
}

// OnStart implements simnet.Starter: the view-0 leader activates its
// sequencer, and every consensus node arms the chain-status ticker that
// lets normal nodes recover lost block disseminations.
func (n *ConsNode) OnStart(ctx *simnet.Context) {
	n.Bind(ctx, func() {
		n.Rep.Start()
		if n.Rep.IsLeader() {
			n.activateSequencer(0)
		}
		n.statusTick()
	})
}

// statusTick periodically advertises the processed chain height (leader
// only) so normal nodes that lost a BlockMsg can fetch it back.
func (n *ConsNode) statusTick() {
	n.statusTimer.Arm(n.Ctx, 2*n.c.Cfg.BlockTimeout)
}

func (n *ConsNode) advertiseStatus() {
	if n.Rep.IsLeader() && n.chainHeight > 0 {
		n.Ctx.Multicast(n.c.groupBlocks, &ChainStatus{Height: n.chainHeight})
	}
	// Re-assert the co-located sequencer's desired state: the activation
	// handoff is just a message, and losing it (e.g. to a storm targeting
	// the freshly elected leader) would otherwise leave the term without a
	// working sequencer until the next view change. The sequencer treats
	// repeats idempotently.
	n.Ctx.Send(n.c.Sequencers[n.Idx].ep.ID(), &seqActivate{
		Active: n.Rep.IsLeader(), View: n.seqActView, StartSeq: n.seqActStart,
	})
	n.statusTick()
}

// OnRestart implements simnet.Restarter: the chain-status ticker restarts,
// and pending persist echoes and proposals are flushed or re-armed. The BFT
// replica itself stays passive until peers' messages drive it — a restarted
// replica whose progress timer was lost cannot initiate view changes, which
// is within the f-faulty budget the protocol already tolerates.
func (n *ConsNode) OnRestart(ctx *simnet.Context) {
	n.Bind(ctx, func() {
		n.statusTick()
		if len(n.persistOut) > 0 {
			n.flushPersist()
		}
		if n.Rep.IsLeader() {
			n.maybePropose()
		}
	})
}

// OnMessage implements simnet.Handler.
func (n *ConsNode) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	n.Bind(ctx, func() {
		// Concrete BIDL messages first: consensus.Msg is satisfied by any
		// sized message, so it must be the fallback case.
		switch m := msg.(type) {
		case *SeqBatch:
			n.onSeqBatchFrom(from, m)
		case *ResultMsg:
			n.onResults(m)
		case *FetchReq:
			n.onFetch(from, m)
		case *SubmitBatch:
			n.onClientRelay(m)
		case *BlockFetchReq:
			n.onBlockFetch(from, m)
		case *PersistFetchReq:
			n.onPersistFetch(from, m)
		case *ChainStatus:
			n.onPeerChainStatus(from, m)
		case *BlockMsg:
			n.onBlockMsg(m)
		case consensus.Msg:
			n.Receive(from, m)
		}
	})
}

// --- Phase 2 ingestion ----------------------------------------------------

// onSeqBatchFrom ingests sequenced transactions. Batches from this node's
// own co-located sequencer are authoritative: the leader proposes what its
// sequencer actually assigned (Def 4.1 makes the proposal the reference),
// so a racing broadcaster cannot poison the proposal itself — only other
// nodes' speculation.
func (n *ConsNode) onSeqBatchFrom(from simnet.NodeID, m *SeqBatch) {
	authoritative := from == n.c.Sequencers[n.Idx].ep.ID()
	for i, st := range m.Txns {
		// Replay check: one SHA-256 over the ~1KB payload.
		n.Ctx.Elapse(n.c.Cfg.Costs.Hash(st.Tx.Size()))
		if n.denylist[st.Tx.Client] {
			continue
		}
		if st.Seq > n.maxSeen {
			n.maxSeen = st.Seq
		}
		ord := m.ords.Intern(n.pool.hashes, i, st.Tx.ID())
		if authoritative {
			n.pool.replaceOrd(st.Seq, st.Tx, ord)
			n.auth[st.Seq] = st.Tx.ID()
			continue
		}
		res := n.pool.addOrd(st.Seq, st.Tx, ord)
		if res == poolDupSeq {
			if n.pool.get(ord).agreed {
				// Agreed transactions evict crafted squatters.
				n.pool.replaceOrd(st.Seq, st.Tx, ord)
				res = poolAdded
			}
		}
		switch res {
		case poolAdded:
		case poolDupSeq:
			// Someone multicast a different transaction under an
			// occupied sequence number: a conflict precursor. The
			// denylist acts on proposal-time conflicts (Def 4.1);
			// here the first-received transaction simply wins.
			atomic.AddUint64(&n.c.Collector.Conflicts, 1)
		case poolDupHash:
			continue
		}
	}
	if n.Rep.IsLeader() {
		n.maybePropose()
	}
}

// pooledAbove returns the sorted sequencer-assigned sequence numbers above
// the watermark. Holes (lost sequencer batches) are tolerated: blocks carry
// explicit sequence lists, and late arrivals below the watermark are
// recovered via client retransmission and re-sequencing.
func (n *ConsNode) pooledAbove() []uint64 {
	var seqs []uint64
	for s := range n.auth {
		if s > n.watermark {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// maybePropose forms block proposals from pooled sequence numbers above the
// watermark (Phase 3 start, Algo 1 line 8). Full blocks propose
// immediately; partial blocks wait for BlockTimeout.
func (n *ConsNode) maybePropose() {
	avail := n.pooledAbove()
	for len(avail) >= n.c.Cfg.BlockSize {
		batch := avail[:n.c.Cfg.BlockSize]
		avail = avail[n.c.Cfg.BlockSize:]
		n.proposeSeqs(batch)
	}
	if len(avail) > 0 && n.proposeTimer.Arm(n.Ctx, n.c.Cfg.BlockTimeout) {
		n.proposeMark = n.watermark
	}
}

// proposePartial proposes what waits above a watermark that has not moved
// for a block timeout.
func (n *ConsNode) proposePartial() {
	if !n.Rep.IsLeader() {
		return
	}
	if n.watermark == n.proposeMark {
		if rest := n.pooledAbove(); len(rest) > 0 {
			if len(rest) > n.c.Cfg.BlockSize {
				rest = rest[:n.c.Cfg.BlockSize]
			}
			n.proposeSeqs(rest)
		}
	}
	n.maybePropose()
}

func (n *ConsNode) proposeSeqs(seqs []uint64) {
	hashes := make([]types.TxID, len(seqs))
	for i, s := range seqs {
		hashes[i] = n.auth[s]
		delete(n.auth, s)
	}
	n.watermark = seqs[len(seqs)-1]
	n.propose(seqs, hashes)
}

func (n *ConsNode) propose(seqs []uint64, hashes []types.TxID) {
	ordering := types.EncodeOrdering(seqs, hashes)
	data := ordering
	if n.c.Cfg.ConsensusOnPayload {
		// Opt-disabled mode: the proposal carries full payloads, so the
		// PROPOSE message is ~1 KB per transaction instead of 40 B.
		total := 0
		for _, s := range seqs {
			if tx, ok := n.pool.at(s); ok {
				total += tx.Size()
			}
		}
		data = append(append([]byte{}, ordering...), make([]byte, total)...)
	}
	// Hash the proposal content.
	n.Ctx.Elapse(n.c.Cfg.Costs.Hash(len(data)) + n.c.Cfg.Costs.BlockOverhead)
	v := consensus.Value{Digest: types.OrderingDigest(ordering), Data: data}
	n.Rep.Propose(v)
}

// --- consensus.Host: what decisions mean to BIDL (transport: simhost.Host) ---

// Proposed implements consensus.Host: record the leader's proposal so
// matching result vectors can persist without waiting for agreement.
func (n *ConsNode) Proposed(seq uint64, v consensus.Value) {
	seqs, hashes, err := decodeOrderingPrefix(v.Data)
	if err != nil {
		return
	}
	if seq >= n.chainHeight {
		n.proposals[seq] = proposal{v.Data, seqs, hashes}
	}
	for i, s := range seqs {
		if cs := n.pool.consAt(s, true); !cs.hashed {
			cs.hash, cs.hashed = n.pool.hashes.Intern(hashes[i]), true
		}
	}
	n.evaluateBuffered(seqs)
}

// evaluateBuffered evaluates the result vectors that were waiting for a
// proposal or an agreement on one of seqs.
func (n *ConsNode) evaluateBuffered(seqs []uint64) {
	for _, s := range seqs {
		if cs := n.pool.consAt(s, false); cs != nil && cs.waiting != nil {
			first, rest := cs.waiting, n.overflow[s]
			cs.waiting = nil
			delete(n.overflow, s)
			n.evaluateResult(first)
			for _, e := range rest {
				n.evaluateResult(e)
			}
		}
	}
}

// proposal is an ordering Proposed decoded, and the bytes it decoded.
type proposal struct {
	data   []byte
	seqs   []uint64
	hashes []types.TxID
}

// Deliver implements consensus.Host: a block ordering was agreed.
func (n *ConsNode) Deliver(seq uint64, v consensus.Value, cert *types.Certificate) {
	seqs, hashes, err := n.agreedOrdering(seq, v.Data)
	if err != nil {
		// Null requests (a new leader's hole filler) and any other
		// undecodable agreed value become empty blocks: every correct
		// node agreed on the same bytes, and in-order delivery must
		// advance past the sequence either way.
		seqs, hashes = nil, nil
	}
	n.delivered[seq] = &deliveredBlock{seqs: seqs, hashes: hashes, cert: cert, at: n.Ctx.Now()}
	n.drainDelivered()
}

// agreedOrdering decodes data, the value agreed at consensus sequence seq,
// unless it is the very slice Proposed last decoded for seq. Anything else (a
// copy of those bytes, another proposal, a null fill) is decoded afresh.
func (n *ConsNode) agreedOrdering(seq uint64, data []byte) ([]uint64, []types.TxID, error) {
	if p, ok := n.proposals[seq]; ok && len(data) == len(p.data) && &data[0] == &p.data[0] {
		return p.seqs, p.hashes, nil
	}
	return decodeOrderingPrefix(data)
}

// drainDelivered processes buffered decisions in chain order, as far as they
// are contiguous.
func (n *ConsNode) drainDelivered() {
	for {
		blk, ok := n.delivered[n.chainHeight]
		if !ok {
			return
		}
		n.processBlock(n.chainHeight, blk)
		delete(n.delivered, n.chainHeight)
		delete(n.proposals, n.chainHeight)
		n.chainHeight++
	}
}

// decodeOrderingPrefix decodes an ordering that may be followed by payload
// bytes (ConsensusOnPayload mode): the leading count says where it ends.
func decodeOrderingPrefix(data []byte) ([]uint64, []types.TxID, error) {
	if len(data) >= 4 {
		if end := 4 + 40*int(binary.BigEndian.Uint32(data)); end < len(data) {
			data = data[:end]
		}
	}
	return types.DecodeOrdering(data)
}

// processBlock handles one agreed block in chain order.
func (n *ConsNode) processBlock(number uint64, blk *deliveredBlock) {
	cfg := n.c.Cfg
	leaderOfBlock := n.c.policy.Leader(blk.cert.View)

	invalid := 0
	sampled := 0
	currentView := blk.cert.View == n.Rep.View()
	for i, s := range blk.seqs {
		h := blk.hashes[i]
		cs := n.pool.consAt(s, true)
		cs.hash, cs.view, cs.hashed, cs.agreed = n.pool.hashes.Intern(h), blk.cert.View, true, true
		r, local := n.pool.agree(s, cs.hash)
		delete(n.watch, h)
		if currentView {
			n.viewTotal++
		}

		// Def 4.1 conflict detection: local Phase-2 transaction at this
		// sequence number differs from the agreed one.
		if local != nil {
			atomic.AddUint64(&n.c.Collector.Conflicts, 1)
			if currentView {
				n.viewConf++
			}
			// A displaced transaction that was agreed under another
			// sequence number is a re-sequencing artifact, not a
			// crafted conflict: suspecting its client would be a
			// false positive (§5.2).
			if !local.rec.agreed {
				n.suspect(local.tx.Client, leaderOfBlock)
			}
			n.pool.drop(s)
		}
		// Sample-verify payloads to catch a garbage-proposing leader
		// (Table 4 S2).
		if sampled < substrate.SampleVerify {
			if tx := n.pool.payload(r); tx != nil {
				sampled++
				n.Ctx.Elapse(cfg.Costs.SigVerify)
				if !tx.VerifySig(n.c.Scheme) {
					invalid++
				}
			}
		}
	}

	// Local hash-chained ledger copy.
	b := &types.Block{Number: number, Prev: n.blocks.LastDigest(), Seqs: blk.seqs, Hashes: blk.hashes, Cert: blk.cert}
	if err := n.blocks.Append(b); err == nil {
		n.Ctx.Elapse(cfg.Costs.BlockOverhead)
	}

	// Leader disseminates the agreed hash-only block to all normal nodes
	// (end of Phase 3: "assembles transactions into a block and delivers
	// the block to normal nodes").
	if leaderOfBlock == n.Idx {
		// A single deterministic authority (the disseminating leader)
		// records agreement for each ordered transaction.
		if tr := n.c.Tracer; tr != nil {
			for _, h := range blk.hashes {
				tr.TxStage(h, trace.StageAgreed, int(n.Ep.ID()), n.Ctx.Now())
			}
		}
		bm := &BlockMsg{Number: number, Ordering: types.EncodeOrdering(blk.seqs, blk.hashes), Cert: blk.cert}
		bm.warmCaches()
		bm.resolve(n.pool.hashes)
		n.c.multicast(n.Ctx, n.c.groupBlocks, bm)
	}

	n.evaluateBuffered(blk.seqs)

	// Shepherding (§4.5): invalid payloads from the leader, or a
	// non-trivial conflict/mismatch rate, trigger a view change.
	if invalid > 0 {
		atomic.AddUint64(&n.c.Collector.RejectedTxns, uint64(invalid))
		n.requestViewChangeOnce()
	}
	if !cfg.DisableDenylist {
		if n.Rep.IsLeader() && n.viewConf > 0 {
			// A correct leader proactively rotates on observing
			// conflicts so the adversary cannot confine conflicts to
			// chosen views (§4.6 mechanism 1).
			n.requestViewChangeOnce()
		}
		if n.viewTotal > cfg.BlockSize {
			rate := float64(n.viewConf+n.viewMis) / float64(n.viewTotal)
			if rate > reexecThreshold {
				n.requestViewChangeOnce()
			}
		}
	}
}

func (n *ConsNode) requestViewChangeOnce() {
	if n.vcRequested {
		return
	}
	n.vcRequested = true
	n.Rep.RequestViewChange()
}

// --- persist protocol (Phase 4-2, Algo 1 lines 16-18) ----------------------

func (n *ConsNode) onResults(m *ResultMsg) {
	for i := range m.Entries {
		e := &m.Entries[i]
		switch cs := n.pool.consAt(e.Seq, true); {
		case !cs.agreed && cs.waiting == nil:
			cs.waiting = e
		case !cs.agreed:
			n.overflow[e.Seq] = append(n.overflow[e.Seq], e)
		case e.hashIs(n.pool.hashes, cs.hash):
			n.evaluateResult(e)
		case cs.view == n.Rep.View():
			// Speculation on a conflicting transaction in the current
			// view: feeds the shepherd's re-execution monitor. Stale
			// votes from superseded sequencing terms are not evidence
			// against this view's leader.
			n.viewMis++
		}
	}
}

// evaluateResult implements approved(R) ∧ match(H,R) ∧ localStore(R): the
// vector must match the hash the leader proposed (or that agreement fixed)
// for its sequence number.
func (n *ConsNode) evaluateResult(e *ResultEntry) {
	cs := n.pool.consAt(e.Seq, false)
	if cs == nil || !cs.hashed || !e.hashIs(n.pool.hashes, cs.hash) {
		return
	}
	if cs.persisted != nil {
		// localStore: only one result vector per sequence (§4.4).
		return
	}
	m := e.memo
	if m == nil {
		// Built without warm (tests, crafted vectors): nothing is shared, so
		// this node derives everything itself.
		m = e.derive()
	}
	// Verify each org's batch-signed partition (MAC-rate, §4.4) and that
	// the carried writes hash to the signed partition digest. Every node
	// charges the virtual cost; the real check runs once per shared vector.
	for i := range e.Vector {
		r := &e.Vector[i]
		n.Ctx.Elapse(n.c.Cfg.Costs.MACVerify + n.c.Cfg.Costs.Hash(writesSize(r.Writes)))
		if !m.parts[i].Check(0, func() bool { return n.partitionAuthentic(e, r) }) {
			return
		}
	}
	// approved(R): all related organizations present (checkable when the
	// payload is pooled).
	if tx, ok := n.pool.byID(e.TxID); ok {
		if !vectorApproved(tx, e.Vector) {
			return
		}
	}
	cs.persisted = &m.persist
	n.persistOut = append(n.persistOut, cs.persisted)
	n.persistTimer.Arm(n.Ctx, resultFlushInterval)
}

// partitionAuthentic checks one partition of e's vector: the writes hash to
// the signed digest, and the organization signed it for this transaction.
func (n *ConsNode) partitionAuthentic(e *ResultEntry, r *OrgResult) bool {
	// wdOK partitions were digested from these very writes at the
	// construction site; the defensive re-hash only runs for partitions
	// built elsewhere.
	if !r.wdOK {
		prw := ledger.RWSet{Writes: r.Writes, Aborted: r.Aborted}
		if prw.Digest() != r.Digest {
			return false
		}
	}
	n.signing = appendOrgResult(n.signing[:0], e.Seq, e.TxID, r.Org, r.Digest, r.Aborted, r.Inconsistent)
	return n.c.Scheme.Verify(crypto.Identity(r.Org), n.signing, r.Sig)
}

// vectorApproved checks the vector covers exactly the related organizations.
func vectorApproved(tx *types.Transaction, vec []OrgResult) bool {
	if len(vec) != len(tx.Orgs) {
		return false
	}
next:
	for _, o := range tx.Orgs {
		for i := range vec {
			if vec[i].Org == o {
				continue next
			}
		}
		return false
	}
	return true
}

func (n *ConsNode) flushPersist() {
	atomic.AddUint64(&n.c.Collector.PersistFlushes, 1)
	atomic.AddUint64(&n.c.Collector.PersistFlushEntries, uint64(len(n.persistOut)))
	if len(n.persistOut) == 0 {
		return
	}
	// The message keeps the batch; the next one starts at its capacity.
	entries := n.persistOut
	n.persistOut = make([]*PersistEntry, 0, cap(entries))
	n.Ctx.Elapse(n.c.Cfg.Costs.MACCompute)
	msg := &PersistMsg{Node: n.Idx, Entries: entries}
	msg.sign(n.Sign)
	n.c.multicast(n.Ctx, n.c.groupPersist, msg)
}

// --- retransmission and client liveness ------------------------------------

func (n *ConsNode) onFetch(from simnet.NodeID, m *FetchReq) {
	var out []types.SequencedTx
	for _, h := range m.Hashes {
		if r := n.pool.known(h); r.pooled {
			out = append(out, types.SequencedTx{Seq: r.seq, Tx: n.pool.payload(&r)})
		}
	}
	atomic.AddUint64(&n.c.Collector.RetransmitReqs, 1)
	if len(out) > 0 {
		n.Ctx.Send(from, &FetchResp{Txns: out})
	}
}

// onBlockMsg lets a consensus node that missed a decision (e.g. across a
// view change) catch up from the leader's dissemination: the 2f+1
// certificate proves agreement, so the block can be processed directly.
func (n *ConsNode) onBlockMsg(m *BlockMsg) {
	if _, ok := n.delivered[m.Number]; ok || m.Number < n.chainHeight {
		return
	}
	seqs, hashes, ok := n.c.certified(m, n.Ctx)
	if !ok {
		return
	}
	n.delivered[m.Number] = &deliveredBlock{seqs: seqs, hashes: hashes, cert: m.Cert, at: n.Ctx.Now()}
	n.drainDelivered()
}

// onPeerChainStatus fetches agreed blocks this consensus node missed: a
// replica that lost the commit round for one sequence (drop storm,
// partition) would otherwise buffer every later delivery forever, because
// peers never retransmit decided instances.
func (n *ConsNode) onPeerChainStatus(from simnet.NodeID, m *ChainStatus) {
	if n.blockFetch.Armed() || !missesBlock(n.chainHeight, m.Height, n.delivered) {
		return
	}
	n.Ctx.Send(from, &BlockFetchReq{From: n.chainHeight, To: m.Height})
	n.blockFetch.Arm(n.Ctx, 2*n.c.Cfg.BlockTimeout)
}

// missesBlock reports whether a node at height, with later blocks buffered,
// lacks any block below the height a peer advertises: the test both node
// kinds' ChainStatus handlers fetch on.
func missesBlock[B any](height, peer uint64, buffered map[uint64]B) bool {
	for num := height; num < peer; num++ {
		if _, ok := buffered[num]; !ok {
			return true
		}
	}
	return false
}

// onBlockFetch re-sends stored blocks a normal node missed.
func (n *ConsNode) onBlockFetch(from simnet.NodeID, m *BlockFetchReq) {
	const maxBlocks = 32
	to := m.To
	if to > n.blocks.Height() {
		to = n.blocks.Height()
	}
	if to > m.From+maxBlocks {
		to = m.From + maxBlocks
	}
	for num := m.From; num < to; num++ {
		b := n.blocks.Get(num)
		if b == nil {
			continue
		}
		n.Ctx.Send(from, &BlockMsg{
			Number:   num,
			Ordering: types.EncodeOrdering(b.Seqs, b.Hashes),
			Cert:     b.Cert,
		})
	}
}

// onPersistFetch re-sends this node's stored PERSIST entries for the
// requested sequence numbers (persist-round loss recovery).
func (n *ConsNode) onPersistFetch(from simnet.NodeID, m *PersistFetchReq) {
	var entries []*PersistEntry
	for _, seq := range m.Seqs {
		if cs := n.pool.consAt(seq, false); cs != nil && cs.persisted != nil {
			entries = append(entries, cs.persisted)
		}
	}
	if len(entries) == 0 {
		return
	}
	n.Ctx.Elapse(n.c.Cfg.Costs.SigSign)
	msg := &PersistMsg{Node: n.Idx, Entries: entries}
	msg.sign(n.Sign)
	n.Ctx.Send(from, msg)
}

// onClientRelay handles client retransmissions (§4.5 second trigger): relay
// to the leader's sequencer and view-change if the transaction still fails
// to commit.
func (n *ConsNode) onClientRelay(m *SubmitBatch) {
	var fresh []*types.Transaction
	for _, tx := range m.Txns {
		id := tx.ID()
		if r := n.pool.known(id); r.agreed || r.committed || n.denylist[tx.Client] {
			continue
		}
		fresh = append(fresh, tx)
		n.watch[id] = true
	}
	if len(fresh) == 0 {
		return
	}
	leader := n.c.LeaderIndex()
	n.Ctx.Send(n.c.Sequencers[leader].ep.ID(), &SubmitBatch{Txns: fresh})
	ids := make([]types.TxID, 0, len(fresh))
	for _, tx := range fresh {
		ids = append(ids, tx.ID())
	}
	view := n.Rep.View()
	n.After(clientTimeout, func() {
		if n.Rep.View() != view {
			// The watchdog indicts the leader it was armed against; a
			// successor gets a fresh timeout (the client's retransmission
			// loop re-arms against it). Without this check, watchdogs
			// armed under a stalled leader burn every subsequent view the
			// moment it is installed, sustaining a view-change cascade.
			return
		}
		stuck := false
		for _, id := range ids {
			if n.watch[id] {
				stuck = true
				break
			}
		}
		if stuck {
			n.requestViewChangeOnce()
		}
	})
}

// --- view changes and the denylist (§4.5–§4.6) ------------------------------

// suspect records that client c caused a conflict in a view led by leader.
func (n *ConsNode) suspect(c crypto.Identity, leader int) {
	if n.c.Cfg.DisableDenylist {
		return
	}
	set := n.suspects[c]
	if set == nil {
		set = make(map[int]bool)
		n.suspects[c] = set
	}
	set[leader] = true
	// Suspected across f+1 views with different leaders ⇒ locally judged
	// malicious (§4.6 step 2).
	if len(set) >= n.c.Cfg.F+1 {
		n.maliceVotes[c] = true
	}
}

// ViewChangeMeta implements consensus.Host: piggyback local malice verdicts.
func (n *ConsNode) ViewChangeMeta() []byte {
	if n.c.Cfg.DisableDenylist || len(n.maliceVotes) == 0 {
		return nil
	}
	clients := make([]string, 0, len(n.maliceVotes))
	for c := range n.maliceVotes {
		clients = append(clients, string(c))
	}
	sort.Strings(clients)
	var buf []byte
	for _, c := range clients {
		buf = append(buf, c...)
		buf = append(buf, 0)
	}
	return buf
}

func decodeMeta(meta []byte) []crypto.Identity {
	var out []crypto.Identity
	start := 0
	for i, b := range meta {
		if b == 0 {
			if i > start {
				out = append(out, crypto.Identity(meta[start:i]))
			}
			start = i + 1
		}
	}
	return out
}

// ViewChanged implements consensus.Host.
func (n *ConsNode) ViewChanged(view uint64, leader int, metas [][]byte) {
	n.vcRequested = false
	n.viewConf, n.viewMis, n.viewTotal = 0, 0, 0
	if n.Idx == 0 {
		atomic.AddUint64(&n.c.Collector.ViewChanges, 1)
	}

	// Merge denylist votes: a client judged malicious by f+1 consensus
	// nodes joins the denylist (§4.6 step 3).
	if !n.c.Cfg.DisableDenylist && len(metas) > 0 {
		counts := make(map[crypto.Identity]int)
		for _, meta := range metas {
			for _, c := range decodeMeta(meta) {
				counts[c]++
			}
		}
		var newly []crypto.Identity
		for c, k := range counts {
			if k >= n.c.Cfg.F+1 && !n.denylist[c] {
				n.denylist[c] = true
				newly = append(newly, c)
			}
		}
		if len(newly) > 0 {
			sort.Slice(newly, func(i, j int) bool { return newly[i] < newly[j] })
			if n.Idx == 0 {
				atomic.AddUint64(&n.c.Collector.DeniedClients, uint64(len(newly)))
			}
			upd := &DenyUpdate{Node: n.Idx, Clients: newly}
			upd.Sig = n.Sign(denySigningBytes(n.Idx, newly))
			n.Ctx.Multicast(n.c.groupPersist, upd)
		}
	}

	if leader == n.Idx {
		n.activateSequencer(view)
	} else {
		n.Ctx.Send(n.c.Sequencers[n.Idx].ep.ID(), &seqActivate{Active: false})
	}
}

// activateSequencer hands the sequencing role to this node's co-located
// sequencer and re-sequences pending transactions from the pool.
func (n *ConsNode) activateSequencer(view uint64) {
	// A generous gap past everything observed keeps the new term's range
	// disjoint from in-flight batches of the previous term (overlapping
	// ranges would create benign conflicts that look like attacks and
	// feed denylist false positives, §5.2).
	start := n.maxSeen + uint64(10*n.c.Cfg.BlockSize) + 1
	n.watermark = start - 1
	n.maxSeen = start - 1
	// Assignments of an earlier term are abandoned with it; left in place
	// they would be walked by pooledAbove on every batch, forever.
	maps.DeleteFunc(n.auth, func(s uint64, _ types.TxID) bool { return s <= n.watermark })
	n.seqActView, n.seqActStart = view, start
	n.Ctx.Send(n.c.Sequencers[n.Idx].ep.ID(), &seqActivate{Active: true, View: view, StartSeq: start})
	// Transactions stranded by the previous leadership term are NOT
	// re-sequenced from the pool: the pool may hold crafted transactions,
	// and re-sequencing them would amplify a broadcaster. Clients
	// retransmit uncommitted transactions themselves (§4.5), and consensus
	// nodes relay only those (onClientRelay).
}
