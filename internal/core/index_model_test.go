package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// Model tests for the node index: what a node remembers per transaction hash
// and per sequence number. Seeded random operation sequences run through the
// real txPool and through real NormalNodes, and after every operation the
// observable state is compared with a reference that keeps one plain map per
// fact. The references are deliberately naive; they are the specification the
// index has to keep, whatever it is built from.
//
//	go test ./internal/core -run TestNodeIndexModel -golden-update
//
// rewrites testdata/index-model.golden, the transcript of what the driven
// nodes charged and sent; regenerate it only for a deliberate protocol change.
var indexGoldenUpdate = flag.Bool("golden-update", false, "rewrite testdata/index-model.golden")

// refPool is the reference for txPool: sequence → payload, hash → sequence,
// and the set of committed hashes.
type refPool struct {
	bySeq     map[uint64]*types.Transaction
	byHash    map[types.TxID]uint64
	committed map[types.TxID]bool
}

func newRefPool() *refPool {
	return &refPool{
		bySeq:     make(map[uint64]*types.Transaction),
		byHash:    make(map[types.TxID]uint64),
		committed: make(map[types.TxID]bool),
	}
}

func (p *refPool) add(seq uint64, tx *types.Transaction) addResult {
	id := tx.ID()
	if p.committed[id] {
		return poolDupHash
	}
	if occ, ok := p.bySeq[seq]; ok {
		if occ.ID() == id {
			return poolDupHash
		}
		return poolDupSeq
	}
	if _, ok := p.byHash[id]; ok {
		return poolDupHash
	}
	p.bySeq[seq], p.byHash[id] = tx, seq
	return poolAdded
}

func (p *refPool) replace(seq uint64, tx *types.Transaction) {
	id := tx.ID()
	if p.committed[id] {
		return
	}
	if occ, ok := p.bySeq[seq]; ok {
		if occ.ID() == id {
			return
		}
		delete(p.byHash, occ.ID())
	}
	if old, ok := p.byHash[id]; ok {
		delete(p.bySeq, old)
	}
	p.bySeq[seq], p.byHash[id] = tx, seq
}

func (p *refPool) drop(seq uint64) {
	if tx, ok := p.bySeq[seq]; ok {
		delete(p.byHash, tx.ID())
		delete(p.bySeq, seq)
	}
}

func (p *refPool) markCommitted(id types.TxID) {
	p.committed[id] = true
	if seq, ok := p.byHash[id]; ok {
		delete(p.byHash, id)
		delete(p.bySeq, seq)
	}
}

// txName names a transaction in a failure message.
func txName(tx *types.Transaction) string {
	if tx == nil {
		return "none"
	}
	return fmt.Sprintf("%s/%d", tx.Client, tx.Nonce)
}

// checkPool compares every read txPool offers, over every sequence number
// and transaction the run has used.
func checkPool(t *testing.T, what string, p *txPool, ref *refPool, seqs []uint64, txs []*types.Transaction) {
	t.Helper()
	for _, s := range seqs {
		got, ok := p.at(s)
		want, wantOK := ref.bySeq[s]
		if ok != wantOK || got != want {
			t.Fatalf("%s: at(%d) = %s, %t; reference %s, %t", what, s, txName(got), ok, txName(want), wantOK)
		}
	}
	for _, tx := range txs {
		id := tx.ID()
		seq, pooled := ref.byHash[id]
		if got, ok := p.seqOf(id); ok != pooled || (ok && got != seq) {
			t.Fatalf("%s: seqOf(%s) = %d, %t; reference %d, %t", what, txName(tx), got, ok, seq, pooled)
		}
		if got, ok := p.byID(id); ok != pooled || (ok && got != ref.bySeq[seq]) {
			t.Fatalf("%s: byID(%s) = %s, %t; reference pooled %t", what, txName(tx), txName(got), ok, pooled)
		}
		if got := p.isCommitted(id); got != ref.committed[id] {
			t.Fatalf("%s: isCommitted(%s) = %t; reference %t", what, txName(tx), got, ref.committed[id])
		}
	}
}

// modelSeqs are the sequence numbers the pool model draws from: a dense run,
// neighbours of the 64 and 128 boundaries, the jump a view change makes
// (10·BlockSize+1 past everything seen), and the values only an adversary
// sends: sequence numbers are unauthenticated (§4.1).
func modelSeqs() []uint64 {
	seqs := []uint64{62, 63, 64, 65, 127, 128, 129, 501, 502, 5001, 5002, 5003,
		1 << 32, 1 << 60, 1<<60 + 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	for s := uint64(0); s < 40; s++ {
		seqs = append(seqs, s)
	}
	return seqs
}

func TestPoolIndexModel(t *testing.T) {
	seqs := modelSeqs()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ref := newTxPool(), newRefPool()
		var txs []*types.Transaction
		pick := func() *types.Transaction {
			if len(txs) < 8 || rng.Intn(4) == 0 {
				txs = append(txs, poolTx(uint64(len(txs))))
				return txs[len(txs)-1]
			}
			return txs[rng.Intn(len(txs))]
		}
		for op := 0; op < 3000; op++ {
			seq := seqs[rng.Intn(len(seqs))]
			var what string
			switch k := rng.Intn(20); {
			case k < 8:
				tx := pick()
				got, want := p.add(seq, tx), ref.add(seq, tx)
				what = fmt.Sprintf("seed %d op %d add(%d, nonce %d)", seed, op, seq, tx.Nonce)
				if got != want {
					t.Fatalf("%s = %d; reference %d", what, got, want)
				}
			case k < 12:
				tx := pick()
				p.replace(seq, tx)
				ref.replace(seq, tx)
				what = fmt.Sprintf("seed %d op %d replace(%d, nonce %d)", seed, op, seq, tx.Nonce)
			case k < 16:
				p.drop(seq)
				ref.drop(seq)
				what = fmt.Sprintf("seed %d op %d drop(%d)", seed, op, seq)
			default:
				tx := pick()
				p.markCommitted(tx.ID())
				ref.markCommitted(tx.ID())
				what = fmt.Sprintf("seed %d op %d markCommitted(nonce %d)", seed, op, tx.Nonce)
			}
			checkPool(t, what, p, ref, seqs, txs)
		}
	}
}

// --- one NormalNode against a reference ----------------------------------------

// planEntry is one (sequence number, transaction) pair some block of the plan
// orders, with the result the consensus nodes will echo for it.
type planEntry struct {
	seq        uint64
	tx         *types.Transaction
	invalid    bool // fails the structure check, or is related to org 0 and fails its signature check
	consistent bool
	aborted    bool
}

// persistEntry is the canonical PERSIST echo for e; val distinguishes a
// diverging echo from the honest one.
func (e *planEntry) persistEntry(seq uint64, val string) PersistEntry {
	pe := PersistEntry{Seq: seq, TxID: e.tx.ID(), Consistent: e.consistent, Aborted: e.aborted,
		Writes: []ledger.Write{{Key: fmt.Sprintf("m-%d", e.seq), Val: []byte(val)}}}
	pe.ResultDigest = (&ledger.RWSet{Writes: pe.Writes, Aborted: pe.Aborted}).Digest()
	pe.warmContentKey()
	return pe
}

type planBlock struct {
	entries []planEntry
	msg     *BlockMsg
}

// refNode is the reference for a NormalNode's index: one plain map per fact.
// It models what the pool holds, what is agreed, what is persisted and what
// commits; speculation, result routing and every charge are left to the
// transcript.
type refNode struct {
	quorum    int
	pool      *refPool
	agreed    map[types.TxID]uint64
	invalid   map[types.TxID]bool
	votes     map[uint64]map[crypto.Digest]map[int]bool
	persisted map[uint64]PersistEntry
	buffered  map[uint64]*planBlock
	height    uint64
	applied   map[string]string
	// badByID says which payloads the node will find invalid once it holds them.
	badByID map[types.TxID]bool
}

func newRefNode(quorum int, bad map[types.TxID]bool) *refNode {
	return &refNode{
		quorum: quorum, pool: newRefPool(), badByID: bad,
		agreed:    make(map[types.TxID]uint64),
		invalid:   make(map[types.TxID]bool),
		votes:     make(map[uint64]map[crypto.Digest]map[int]bool),
		persisted: make(map[uint64]PersistEntry),
		buffered:  make(map[uint64]*planBlock),
		applied:   make(map[string]string),
	}
}

func (r *refNode) onSeqBatch(txns []types.SequencedTx) {
	for _, st := range txns {
		if r.pool.add(st.Seq, st.Tx) == poolDupSeq {
			if seq, ok := r.agreed[st.Tx.ID()]; ok && seq == st.Seq {
				r.pool.replace(st.Seq, st.Tx)
			}
		}
	}
}

func (r *refNode) onBlock(number uint64, b *planBlock) {
	if _, ok := r.buffered[number]; ok || number < r.height {
		return
	}
	for _, e := range b.entries {
		r.agreed[e.tx.ID()] = e.seq
	}
	r.buffered[number] = b
	r.tryCommit()
}

func (r *refNode) onPersist(node int, entries []PersistEntry) {
	progressed := false
	for _, e := range entries {
		if r.pool.committed[e.TxID] {
			continue
		}
		if _, done := r.persisted[e.Seq]; done {
			continue
		}
		byKey := r.votes[e.Seq]
		if byKey == nil {
			byKey = make(map[crypto.Digest]map[int]bool)
			r.votes[e.Seq] = byKey
		}
		key := e.contentKey()
		if byKey[key] == nil {
			byKey[key] = make(map[int]bool)
		}
		byKey[key][node] = true
		if len(byKey[key]) >= r.quorum {
			r.persisted[e.Seq] = e
			progressed = true
		}
	}
	if progressed {
		r.tryCommit()
	}
}

// tryCommit commits buffered blocks in order while the head block has every
// payload and every valid entry's result persisted.
func (r *refNode) tryCommit() {
	for {
		b, ok := r.buffered[r.height]
		if !ok {
			return
		}
		for _, e := range b.entries {
			id := e.tx.ID()
			if _, pooled := r.pool.byHash[id]; !pooled && !r.pool.committed[id] {
				return // payload missing: the node fetches it
			}
		}
		for _, e := range b.entries {
			if id := e.tx.ID(); !r.pool.committed[id] && r.badByID[id] {
				r.invalid[id] = true
			}
		}
		for _, e := range b.entries {
			id := e.tx.ID()
			if r.pool.committed[id] || r.invalid[id] {
				continue
			}
			if _, done := r.persisted[e.seq]; !done {
				return
			}
		}
		for _, e := range b.entries {
			id := e.tx.ID()
			if r.pool.committed[id] {
				continue
			}
			if pe := r.persisted[e.seq]; !r.invalid[id] && pe.Consistent && !pe.Aborted {
				for _, w := range pe.Writes {
					r.applied[w.Key] = string(w.Val)
				}
			}
			r.pool.markCommitted(id)
			delete(r.votes, e.seq)
			delete(r.persisted, e.seq)
		}
		delete(r.buffered, r.height)
		r.height++
	}
}

// indexRun drives two normal nodes of organization 0, its delegate and a
// plain member, with the same shared message objects (as a multicast does).
type indexRun struct {
	t      *testing.T
	c      *Cluster
	rng    *rand.Rand
	nodes  []*NormalNode
	refs   []*refNode
	blocks []*planBlock
	all    []*planEntry // every entry of every block
	seqs   []uint64     // every sequence number the run has touched
	txs    []*types.Transaction
	squats uint64
	sent   []string // what the driven nodes sent since the last transcript line, as node:type/size
	out    bytes.Buffer
}

const indexModelOrg = 0

// newIndexRun builds the cluster, the transactions and the block plan.
func newIndexRun(t *testing.T, seed int64) *indexRun {
	cfg := smallConfig()
	cfg.PerOrg = 2
	c, gen := buildCluster(t, cfg, defaultWorkload())
	r := &indexRun{t: t, c: c, rng: rand.New(rand.NewSource(seed)), nodes: c.Orgs[indexModelOrg]}
	// Nothing the cluster sends is delivered: the run is the driven nodes'
	// handlers and timers only, and what they send is the transcript.
	c.Net.DropFilter = func(from, _ simnet.NodeID, msg simnet.Message) bool {
		kind := fmt.Sprintf("%T", msg) // the type's name without its package
		kind = kind[strings.LastIndexByte(kind, '.')+1:]
		for i, nn := range r.nodes {
			if from == nn.ep.ID() {
				r.sent = append(r.sent, fmt.Sprintf("n%d:%s/%d", i, kind, msg.Size()))
			}
		}
		return true
	}

	org := types.OrgName(indexModelOrg)
	bad := make(map[types.TxID]bool)
	next := func() planEntry {
		e := planEntry{tx: gen.Next(), consistent: r.rng.Intn(8) != 0, aborted: r.rng.Intn(8) == 0}
		switch r.rng.Intn(12) {
		case 0: // a related transaction whose signature does not verify
			for !e.tx.RelatedTo(org) {
				e.tx = gen.Next()
			}
			e.tx.Sig = append(crypto.Signature(nil), e.tx.Sig...)
			e.tx.Sig[0] ^= 0xff
			e.invalid = true
		case 1: // a structurally invalid transaction: it names no existing organization
			e.tx = &types.Transaction{Client: gen.Client(0), Nonce: 1<<40 + uint64(len(bad)),
				Contract: "smallbank", Fn: "send_payment"}
			if r.rng.Intn(2) == 0 {
				e.tx.Orgs = []string{types.OrgName(99)}
			}
			if err := e.tx.Sign(c.Scheme); err != nil {
				t.Fatal(err)
			}
			e.invalid = true
		}
		bad[e.tx.ID()] = e.invalid
		return e
	}
	// Ten blocks: sequence numbers are consecutive from 58 (so the run
	// crosses 64 and 128), jump by 10·BlockSize+1 after block 4 as a view
	// change does, block 3 is a null block, and block 7 re-orders a
	// transaction block 1 already ordered, under a new sequence number.
	seq := uint64(58)
	for number := 0; number < 10; number++ {
		b := &planBlock{}
		if number == 5 {
			seq += uint64(10*cfg.BlockSize) + 1
		}
		for i := 0; number != 3 && i < 4+r.rng.Intn(6); i++ {
			e := next()
			e.seq = seq
			seq++
			b.entries = append(b.entries, e)
		}
		if number == 7 {
			again := r.blocks[1].entries[0]
			again.seq = seq
			seq++
			b.entries = append(b.entries, again)
		}
		var seqs []uint64
		var hashes []types.TxID
		for i := range b.entries {
			e := &b.entries[i]
			seqs, hashes = append(seqs, e.seq), append(hashes, e.tx.ID())
			r.all = append(r.all, e)
			r.seqs = append(r.seqs, e.seq, e.seq+7000, e.seq+9000)
			r.txs = append(r.txs, e.tx)
		}
		b.msg = &BlockMsg{Number: uint64(number), Ordering: types.EncodeOrdering(seqs, hashes)}
		digest := b.msg.OrderingDig()
		if len(seqs) == 0 {
			digest = crypto.Digest{}
		}
		b.msg.Cert = &types.Certificate{Number: uint64(number), Digest: digest}
		for cn := 0; cn < cfg.quorum(); cn++ {
			sig, err := c.Scheme.Sign(cnIdentity(cn), types.CertSigningBytes(0, uint64(number), digest))
			if err != nil {
				t.Fatal(err)
			}
			b.msg.Cert.Sigs = append(b.msg.Cert.Sigs, types.NodeSig{Node: cn, Sig: sig})
		}
		if number%2 == 0 { // the leader's dissemination; odd blocks arrive as a block-fetch reply does
			b.msg.warmCaches()
			b.msg.resolve(c.Hashes)
		}
		r.blocks = append(r.blocks, b)
	}
	for range r.nodes {
		r.refs = append(r.refs, newRefNode(cfg.quorum(), bad))
	}
	return r
}

// deliver runs fn on every driven node inside an injected activation, then
// ref on its reference, compares the two and writes one transcript line per
// node: the virtual CPU charged, the commit height and what was sent.
func (r *indexRun) deliver(what string, fn func(*NormalNode), ref func(*refNode)) {
	r.t.Helper()
	for i, nn := range r.nodes {
		ctx := simnet.NewInjectedContext(r.c.Net, nn.ep)
		start := ctx.Now()
		nn.bind(ctx, func() { fn(nn) })
		ref(r.refs[i])
		fmt.Fprintf(&r.out, "%s n%d cpu=%v height=%d sent=%s\n", what, i, ctx.Now()-start, nn.commitHeight, r.takeSent())
		r.check(what, i)
	}
}

// takeSent renders and clears the sends recorded so far, runs of the same
// send folded into one item.
func (r *indexRun) takeSent() string {
	var b strings.Builder
	for i := 0; i < len(r.sent); {
		j := i
		for j < len(r.sent) && r.sent[j] == r.sent[i] {
			j++
		}
		fmt.Fprintf(&b, " %s*%d", r.sent[i], j-i)
		i = j
	}
	r.sent = r.sent[:0]
	return "[" + strings.TrimPrefix(b.String(), " ") + "]"
}

// check compares node i with its reference.
func (r *indexRun) check(what string, i int) {
	r.t.Helper()
	nn, ref := r.nodes[i], r.refs[i]
	what = fmt.Sprintf("%s, node %d", what, i)
	if nn.commitHeight != ref.height || nn.blocks.Height() != ref.height {
		r.t.Fatalf("%s: commit height %d, ledger height %d; reference %d", what, nn.commitHeight, nn.blocks.Height(), ref.height)
	}
	checkPool(r.t, what, nn.pool, ref.pool, r.seqs, r.txs)
	for _, e := range r.all {
		key := fmt.Sprintf("m-%d", e.seq)
		val, _, ok := nn.base.Get(key)
		if want, wantOK := ref.applied[key]; ok != wantOK || string(val) != want {
			r.t.Fatalf("%s: state[%s] = %q, %t; reference %q, %t", what, key, val, ok, want, wantOK)
		}
	}
}

func (r *indexRun) seqBatch(what string, txns []types.SequencedTx, fetched bool) {
	for _, st := range txns {
		id := st.Tx.ID()
		what += fmt.Sprintf(" %d:%x", st.Seq, id[:3])
	}
	if fetched {
		r.deliver(what, func(nn *NormalNode) { nn.onFetchResp(&FetchResp{Txns: txns}) },
			func(ref *refNode) { ref.onSeqBatch(txns); ref.tryCommit() })
		return
	}
	batch := &SeqBatch{Txns: txns}
	r.deliver(what, func(nn *NormalNode) { nn.onSeqBatch(batch) }, func(ref *refNode) { ref.onSeqBatch(txns) })
}

func (r *indexRun) block(number int) {
	b := r.blocks[number]
	r.deliver(fmt.Sprintf("block %d", number), func(nn *NormalNode) { nn.onBlock(b.msg) },
		func(ref *refNode) { ref.onBlock(uint64(number), b) })
}

func (r *indexRun) persist(what string, cn int, entries []PersistEntry) {
	msg := &PersistMsg{Node: cn, Entries: echoes(entries...)}
	msg.sign(r.c.ConsNodes[cn].Sign)
	from := r.c.ConsNodes[cn].Ep.ID()
	for _, e := range entries {
		what += fmt.Sprintf(" %d:%x", e.Seq, e.TxID[:3])
	}
	r.deliver(fmt.Sprintf("%s cn%d", what, cn), func(nn *NormalNode) { nn.onPersist(from, msg) },
		func(ref *refNode) { ref.onPersist(cn, entries) })
}

// tick advances virtual time past every retry period, so each armed timer of
// the driven nodes (gap jump, payload re-fetch, persist retry, result flush)
// fires at least once; a pending head block is retried by one of them.
func (r *indexRun) tick() {
	r.c.Sim.RunUntil(r.c.Sim.Now() + 25*time.Millisecond)
	fmt.Fprintf(&r.out, "tick heights=%d,%d sent=%s\n", r.nodes[0].commitHeight, r.nodes[1].commitHeight, r.takeSent())
	for i := range r.nodes {
		r.refs[i].tryCommit()
		r.check("tick", i)
	}
}

// missing lists, as a fetch reply would carry them, the payloads node 0's
// reference lacks for its head block.
func (r *indexRun) missing() []types.SequencedTx {
	ref := r.refs[0]
	b, ok := ref.buffered[ref.height]
	if !ok {
		return nil
	}
	var out []types.SequencedTx
	for _, e := range b.entries {
		id := e.tx.ID()
		if _, pooled := ref.pool.byHash[id]; !pooled && !ref.pool.committed[id] {
			out = append(out, types.SequencedTx{Seq: e.seq, Tx: e.tx})
		}
	}
	return out
}

// nearHead draws a block number: three times in four one of the three blocks
// at node 0's commit height, so the random steps make progress down the
// chain while still touching blocks far ahead and long committed.
func (r *indexRun) nearHead() int {
	if h := int(r.refs[0].height); h < len(r.blocks) && r.rng.Intn(4) != 0 {
		return min(h+r.rng.Intn(3), len(r.blocks)-1)
	}
	return r.rng.Intn(len(r.blocks))
}

// entries draws n planned entries from blocks near the head.
func (r *indexRun) entries(n int) []*planEntry {
	out := make([]*planEntry, 0, n)
	for len(out) < n {
		if es := r.blocks[r.nearHead()].entries; len(es) > 0 {
			out = append(out, &es[r.rng.Intn(len(es))])
		}
	}
	return out
}

// step performs one random operation.
func (r *indexRun) step() {
	switch k := r.rng.Intn(100); {
	case k < 22: // the sequencer's multicast, possibly repeated
		var txns []types.SequencedTx
		for _, e := range r.entries(1 + r.rng.Intn(4)) {
			txns = append(txns, types.SequencedTx{Seq: e.seq, Tx: e.tx})
		}
		r.seqBatch("seq", txns, false)
	case k < 28: // a crafted transaction squats on a sequence number the plan uses
		r.seqBatch("squat", []types.SequencedTx{{Seq: r.entries(1)[0].seq, Tx: r.squatter()}}, false)
	case k < 32: // a planned transaction replayed under another sequence number
		e := r.entries(1)[0]
		r.seqBatch("replay", []types.SequencedTx{{Seq: e.seq + 7000, Tx: e.tx}}, false)
	case k < 44:
		r.block(r.nearHead())
	case k < 66: // an honest PERSIST batch
		var pes []PersistEntry
		for _, e := range r.entries(1 + r.rng.Intn(5)) {
			pes = append(pes, e.persistEntry(e.seq, "v"))
		}
		r.persist("persist", r.rng.Intn(len(r.c.ConsNodes)), pes)
	case k < 74: // one consensus node's echo of a whole block near the head
		r.persistFrom(r.nearHead(), r.rng.Intn(len(r.c.ConsNodes)))
	case k < 79: // an echo whose content differs from the honest one
		e := r.entries(1)[0]
		r.persist("diverge", r.rng.Intn(len(r.c.ConsNodes)), []PersistEntry{e.persistEntry(e.seq, "x")})
	case k < 84: // an echo naming a planned hash under another sequence number
		e := r.entries(1)[0]
		r.persist("stale", r.rng.Intn(len(r.c.ConsNodes)), []PersistEntry{e.persistEntry(e.seq+9000, "v")})
	case k < 92:
		if m := r.missing(); len(m) > 0 {
			r.seqBatch("fetched", m, true)
		}
	default:
		r.tick()
	}
}

// finish delivers whatever the random steps left out, in an order that lets
// every block commit.
func (r *indexRun) finish() {
	for number := range r.blocks {
		r.block(number)
	}
	for cn := 0; cn < r.refs[0].quorum; cn++ {
		for number := range r.blocks {
			r.persistFrom(number, cn)
		}
	}
	r.fetchAll()
	r.tick()
	for i, nn := range r.nodes {
		if nn.commitHeight != uint64(len(r.blocks)) {
			r.t.Fatalf("node %d finished at height %d of %d", i, nn.commitHeight, len(r.blocks))
		}
		for number, b := range r.blocks {
			got := nn.blocks.Get(uint64(number))
			if len(got.Seqs) != len(b.entries) || len(got.Hashes) != len(b.entries) {
				r.t.Fatalf("node %d block %d orders %d transactions, plan %d", i, number, len(got.Hashes), len(b.entries))
			}
			for j, e := range b.entries {
				if got.Seqs[j] != e.seq || got.Hashes[j] != e.tx.ID() {
					r.t.Fatalf("node %d block %d entry %d differs from the plan", i, number, j)
				}
			}
		}
	}
	if !r.nodes[0].blocks.Equal(r.nodes[1].blocks) || !r.nodes[0].base.Equal(r.nodes[1].base) {
		r.t.Fatal("the two driven nodes diverge")
	}
	col := r.c.Collector
	fmt.Fprintf(&r.out, "end conflicts=%d speculated=%d matched=%d reexecuted=%d nondet=%d persist_msgs=%d retransmit=%d\n",
		col.Conflicts, col.Speculated, col.SpecMatched, col.Reexecuted, col.NondetAborts, col.PersistMsgs, col.RetransmitReqs)
}

func TestNodeIndexModel(t *testing.T) {
	var out bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		r := newIndexRun(t, seed)
		for op := 0; op < 300; op++ {
			r.step()
		}
		r.finish()
		fmt.Fprintf(&out, "== seed %d\n%s", seed, r.out.Bytes())
	}
	path := filepath.Join("testdata", "index-model.golden")
	if *indexGoldenUpdate {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -golden-update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range got {
			if i >= len(exp) || got[i] != exp[i] {
				t.Fatalf("transcript differs from %s at line %d:\n got %s\nwant %s", path, i+1, got[i], strings.Join(exp[min(i, len(exp)):min(i+1, len(exp))], ""))
			}
		}
		t.Fatalf("transcript stops at line %d of %s", len(got), path)
	}
}

// The hand-written cases below are the ones a once-only commit scan and a
// sequence-first PERSIST lookup could get wrong; each is also reachable by
// the random run, but these name them.

// indexCase builds a run, commits the blocks ahead of the first one that
// opens with two valid transactions, and returns that block's number and
// entries.
func indexCase(t *testing.T) (*indexRun, int, []planEntry) {
	r := newIndexRun(t, 99)
	for number, b := range r.blocks {
		if number > 0 {
			r.block(number - 1)
			r.persistAll(number - 1)
			r.fetchAll()
		}
		if len(b.entries) >= 4 && !b.entries[0].invalid && !b.entries[1].invalid {
			return r, number, b.entries
		}
	}
	t.Fatal("plan has no usable block")
	return nil, 0, nil
}

// persistFrom delivers consensus node cn's honest echo of block number's
// results; persistAll does so for a quorum of consensus nodes.
func (r *indexRun) persistFrom(number, cn int) {
	var pes []PersistEntry
	for i := range r.blocks[number].entries {
		e := &r.blocks[number].entries[i]
		pes = append(pes, e.persistEntry(e.seq, "v"))
	}
	if len(pes) > 0 {
		r.persist("persist", cn, pes)
	}
}

func (r *indexRun) persistAll(number int) {
	for cn := 0; cn < r.refs[0].quorum; cn++ {
		r.persistFrom(number, cn)
	}
}

func (r *indexRun) fetchAll() {
	for m := r.missing(); len(m) > 0; m = r.missing() {
		r.seqBatch("fetched", m, true)
	}
}

// squatter crafts a transaction of an unregistered client, related to the
// driven nodes' organization so they try to verify and execute it.
func (r *indexRun) squatter() *types.Transaction {
	r.squats++
	tx := &types.Transaction{Client: "mallory", Nonce: r.squats, Contract: "smallbank",
		Fn: "send_payment", Orgs: []string{types.OrgName(indexModelOrg)}}
	r.txs = append(r.txs, tx)
	return tx
}

// A squatter holds an agreed sequence number through the first commit
// attempt; the agreed payload then evicts it and the second attempt, started
// by PERSIST progress, must see the payload.
func TestIndexSquatterEvictedBetweenAttempts(t *testing.T) {
	r, number, es := indexCase(t)
	squat := r.squatter()
	r.seqBatch("squat", []types.SequencedTx{{Seq: es[0].seq, Tx: squat}}, false)
	for _, e := range es[1:] {
		r.seqBatch("seq", []types.SequencedTx{{Seq: e.seq, Tx: e.tx}}, false)
	}
	r.block(number) // attempt 1: es[0]'s payload is missing, the node fetches
	for cn := 0; cn < r.refs[0].quorum-1; cn++ {
		r.persistFrom(number, cn)
	}
	// The sequencer's multicast of the agreed transaction arrives late: the
	// consensus-agreed hash evicts the squatter. No commit attempt follows.
	r.seqBatch("seq", []types.SequencedTx{{Seq: es[0].seq, Tx: es[0].tx}}, false)
	for i, nn := range r.nodes {
		if got, _ := nn.pool.at(es[0].seq); got != es[0].tx {
			t.Fatalf("node %d: the agreed transaction did not evict the squatter", i)
		}
		if nn.commitHeight != uint64(number) {
			t.Fatalf("node %d committed block %d before its results persisted", i, number)
		}
	}
	r.persistFrom(number, r.refs[0].quorum-1) // attempt 2, by PERSIST progress
	for i, nn := range r.nodes {
		if nn.commitHeight != uint64(number)+1 {
			t.Fatalf("node %d: block %d did not commit on the second attempt", i, number)
		}
	}
}

// Every result persists before the last payload arrives; the payload comes by
// FetchResp after the first attempt, and that delivery alone must commit.
func TestIndexPayloadByFetchRespAfterFirstAttempt(t *testing.T) {
	r, number, es := indexCase(t)
	for _, e := range es[1:] {
		r.seqBatch("seq", []types.SequencedTx{{Seq: e.seq, Tx: e.tx}}, false)
	}
	r.persistAll(number)
	r.block(number)
	if h := r.nodes[0].commitHeight; h != uint64(number) {
		t.Fatalf("block %d committed at height %d without a payload", number, h)
	}
	r.seqBatch("fetched", []types.SequencedTx{{Seq: es[0].seq, Tx: es[0].tx}}, true)
	for i, nn := range r.nodes {
		if nn.commitHeight != uint64(number)+1 {
			t.Fatalf("node %d: the fetched payload did not commit block %d", i, number)
		}
	}
}

// A structurally invalid transaction inside a block commits as aborted
// without any persist round, and does not hold the block back.
func TestIndexStructurallyInvalidInsideBlock(t *testing.T) {
	r := newIndexRun(t, 99)
	for number, b := range r.blocks {
		r.block(number)
		r.fetchAll()
		var pes []PersistEntry
		structBad := 0
		for i := range b.entries {
			e := &b.entries[i]
			if e.invalid && !e.tx.RelatedTo(types.OrgName(indexModelOrg)) {
				structBad++
				continue // no consensus node echoes a result for it
			}
			pes = append(pes, e.persistEntry(e.seq, "v"))
		}
		for cn := 0; cn < r.refs[0].quorum && len(pes) > 0; cn++ {
			r.persist("persist", cn, pes)
		}
		for i, nn := range r.nodes {
			if nn.commitHeight != uint64(number)+1 {
				t.Fatalf("node %d: block %d with %d structurally invalid transactions did not commit", i, number, structBad)
			}
		}
	}
}

// A PERSIST entry that names an already committed hash under a different
// sequence number is ignored: it neither votes nor resurrects the hash.
func TestIndexPersistForCommittedHashUnderOtherSeq(t *testing.T) {
	r, number, es := indexCase(t)
	r.block(number)
	r.fetchAll()
	r.persistAll(number)
	other := es[0].seq + 9000
	for cn := range r.c.ConsNodes {
		r.persist("stale", cn, []PersistEntry{es[0].persistEntry(other, "v")})
	}
	// A different transaction ordered at that sequence number later must
	// still need its own quorum.
	late := r.squatter()
	r.seqBatch("seq", []types.SequencedTx{{Seq: other, Tx: late}}, false)
	for i, nn := range r.nodes {
		if !nn.pool.isCommitted(es[0].tx.ID()) {
			t.Fatalf("node %d: hash no longer committed", i)
		}
		if got, _ := nn.pool.at(other); got != late {
			t.Fatalf("node %d: sequence %d not free for a later transaction", i, other)
		}
	}
}

// Three blocks of 500 commit, over 24 pages of ordinals; a later block orders
// 60 of their hashes again, drawn across every page in a scrambled order,
// under new sequence numbers. Each stays committed, the block commits with all
// of them skipped, and the node sends nothing for it: no client notice, no
// fetch, no vote. The node goes on committing fresh blocks afterwards.
func TestIndexCommittedHashesOrderedAgain(t *testing.T) {
	f := newCommitBench(t, DefaultConfig(), false)
	for i := 0; i < 3; i++ {
		f.next(t)()
	}
	c, nn := f.c, f.nn
	var done []types.TxID
	for number := uint64(0); number < 3; number++ {
		done = append(done, nn.blocks.Get(number).Hashes...)
	}
	var seqs []uint64
	var hashes []types.TxID
	for k, i := range rand.New(rand.NewSource(3)).Perm(len(done))[:60] {
		seqs, hashes = append(seqs, 1<<20+uint64(k)), append(hashes, done[i])
	}
	block := &BlockMsg{Number: 3, Ordering: types.EncodeOrdering(seqs, hashes)}
	block.Cert = &types.Certificate{Number: block.Number, Digest: block.OrderingDig()}
	for cn := 0; cn < c.Cfg.quorum(); cn++ {
		sig, err := c.Scheme.Sign(cnIdentity(cn), types.CertSigningBytes(0, block.Number, block.Cert.Digest))
		if err != nil {
			t.Fatal(err)
		}
		block.Cert.Sigs = append(block.Cert.Sigs, types.NodeSig{Node: cn, Sig: sig})
	}
	block.warmCaches()
	sent := 0
	c.Net.DropFilter = func(from, _ simnet.NodeID, _ simnet.Message) bool {
		if from == nn.ep.ID() {
			sent++
		}
		return true
	}
	nn.bind(f.ctx, func() { nn.onBlock(block) })
	if nn.commitHeight != 4 {
		t.Fatalf("the block ordering committed hashes again left the node at height %d, want 4", nn.commitHeight)
	}
	if sent != 0 {
		t.Fatalf("the node sent %d messages for a block of committed hashes", sent)
	}
	for k, h := range hashes {
		if !nn.pool.isCommitted(h) {
			t.Fatalf("hash %d no longer committed after a later block ordered it", k)
		}
		if _, ok := nn.pool.at(seqs[k]); ok {
			t.Fatalf("hash %d's new sequence number holds a payload", k)
		}
	}
	if got := nn.blocks.Get(3); len(got.Hashes) != len(hashes) {
		t.Fatalf("block 3 holds %d hashes, ordered %d", len(got.Hashes), len(hashes))
	}
	f.number++
	f.next(t)()
	if nn.commitHeight != 5 {
		t.Fatalf("a fresh block after the replays left the node at height %d, want 5", nn.commitHeight)
	}
}

// The first echo a node sees for a sequence number diverges from the honest
// one, so every honest vote takes the spill path; the honest content still
// persists at its quorum and the diverging one never does.
func TestIndexDivergingContentKey(t *testing.T) {
	r, number, es := indexCase(t)
	r.block(number)
	r.fetchAll()
	r.persist("diverge", 3, []PersistEntry{es[0].persistEntry(es[0].seq, "x")})
	for cn := 0; cn < r.refs[0].quorum; cn++ {
		r.persistFrom(number, cn)
	}
	key := fmt.Sprintf("m-%d", es[0].seq)
	for i, nn := range r.nodes {
		if nn.commitHeight != uint64(number)+1 {
			t.Fatalf("node %d: honest quorum behind a diverging first echo did not commit", i)
		}
		if val, _, ok := nn.base.Get(key); ok != (es[0].consistent && !es[0].aborted) || (ok && string(val) != "v") {
			t.Fatalf("node %d: state[%s] = %q, %t", i, key, val, ok)
		}
	}
}

// Sequence numbers are unauthenticated: one crafted transaction at 1<<60, and
// PERSIST votes and a block naming it, must cost the node a constant amount
// of memory, not memory proportional to the gap.
func TestIndexHugeSequenceNumberIsConstantMemory(t *testing.T) {
	r := newIndexRun(t, 99)
	huge := r.squatter()
	r.seqs = append(r.seqs, 1<<60, 1<<60+1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.seqBatch("squat", []types.SequencedTx{{Seq: 1 << 60, Tx: huge}, {Seq: 1<<60 + 1, Tx: r.blocks[0].entries[0].tx}}, false)
	e := planEntry{tx: huge, consistent: true}
	r.persist("persist", 0, []PersistEntry{e.persistEntry(1<<60, "v"), e.persistEntry(1<<62, "v")})
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limit = 1 << 20
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > limit {
		t.Fatalf("live heap grew by %d bytes for two huge sequence numbers, limit %d", grown, limit)
	}
	if churn := after.TotalAlloc - before.TotalAlloc; churn > limit {
		t.Fatalf("%d bytes allocated for two huge sequence numbers, limit %d", churn, limit)
	}
	for i, nn := range r.nodes {
		if got, _ := nn.pool.at(1 << 60); got != huge {
			t.Fatalf("node %d: crafted transaction not pooled at 1<<60", i)
		}
	}
	// The node keeps working at ordinary sequence numbers afterwards.
	r.block(0)
	r.fetchAll()
	r.persistAll(0)
	if h := r.nodes[0].commitHeight; h != 1 {
		t.Fatalf("commit height %d after the crafted batch, want 1", h)
	}
}
