package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// Cases for the cluster-wide hash table and the id memos on shared messages
// (DESIGN.md §7.1): sharing the name → id function must not share what a
// node knows, and a message without a matching memo must end where a
// memoised one does.

// Two pools on one hash table against a reference each: whatever one pool
// records, the other's reads stay its own — a hash only pool A pooled or
// committed reads unknown on pool B, also after B lost an add for it on an
// occupied slot.
func TestIndexTwoPoolsOneHashTable(t *testing.T) {
	seqs := modelSeqs()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hashes := dense.NewTable[types.TxID]()
		pools := []*txPool{newTxPoolOn(hashes), newTxPoolOn(hashes)}
		refs := []*refPool{newRefPool(), newRefPool()}
		var txs []*types.Transaction
		for op := 0; op < 2000; op++ {
			if len(txs) < 8 || rng.Intn(4) == 0 {
				txs = append(txs, poolTx(uint64(len(txs))))
			}
			i, seq, tx := rng.Intn(2), seqs[rng.Intn(len(seqs))], txs[rng.Intn(len(txs))]
			p, ref := pools[i], refs[i]
			what := fmt.Sprintf("seed %d op %d pool %d seq %d nonce %d", seed, op, i, seq, tx.Nonce)
			switch k := rng.Intn(20); {
			case k < 9:
				if got, want := p.add(seq, tx), ref.add(seq, tx); got != want {
					t.Fatalf("%s: add = %d; reference %d", what, got, want)
				}
			case k < 12:
				p.replace(seq, tx)
				ref.replace(seq, tx)
			case k < 15:
				p.drop(seq)
				ref.drop(seq)
			case k < 18:
				p.markCommitted(tx.ID())
				ref.markCommitted(tx.ID())
			default: // agree marks the hash and reports the slot's squatter, nothing else
				occ, held := ref.bySeq[seq]
				r, squatter := p.agree(seq, hashes.Intern(tx.ID()))
				if !r.agreed || (squatter != nil) != (held && occ != tx) || (squatter != nil && squatter.tx != occ) {
					t.Fatalf("%s: agree reports squatter %v; reference holds %s", what, squatter != nil, txName(occ))
				}
			}
			for j := range pools {
				checkPool(t, fmt.Sprintf("%s, read from pool %d", what, j), pools[j], refs[j], seqs, txs)
			}
		}
	}
}

// Marking a hash the node never saw committed, or agreed, costs the node at
// most the one page its record lands in (and the page directory up to it).
func TestIndexNeverSeenHashCostsOnePage(t *testing.T) {
	hashes := dense.NewTable[types.TxID]()
	ids := make([]types.TxID, 3*dense.PageSize)
	for i := range ids { // other nodes of the cluster recorded them; this one did not
		ids[i] = poolTx(uint64(i)).ID()
		hashes.Intern(ids[i])
	}
	p := newTxPoolOn(hashes)
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	page := uint64(unsafe.Sizeof([dense.PageSize]txRec{}))
	if got := allocated(func() { p.markCommitted(ids[2*dense.PageSize+5]) }); got > page+256 {
		t.Fatalf("barring one never-seen hash allocated %d bytes, want one %d-byte page and its directory", got, page)
	}
	if got := allocated(func() {
		p.agree(77, 2*dense.PageSize+6)
		p.markCommitted(ids[2*dense.PageSize+7])
		if p.isCommitted(ids[9]) || p.known(ids[dense.PageSize+9]) != (txRec{}) {
			t.Error("a hash only other nodes recorded reads as known")
		}
	}); got > 128 {
		t.Fatalf("two more hashes on the allocated page, and two reads, allocated %d bytes", got)
	}
	if len(p.recs) != 3 || p.recs[0] != nil || p.recs[1] != nil || len(p.pages) != 0 {
		t.Fatalf("pool holds %d record pages (first two allocated: %t, %t) and %d slot pages, want only the third record page",
			len(p.recs), p.recs[0] != nil, p.recs[1] != nil, len(p.pages))
	}
}

// foreignHashes is a hash table that numbers r's transactions differently
// from the cluster's: a memo resolved in it must not be read as ordinals.
func foreignHashes(r *indexRun) *dense.Table[types.TxID] {
	tab := dense.NewTable[types.TxID]()
	for i := len(r.txs) - 1; i >= 0; i-- {
		tab.Intern(r.txs[i].ID())
	}
	return tab
}

// A sequenced batch reaches the delegate as the sequencer sends it (ordinals
// resolved in the cluster's table) and the member as an adversary or a fetch
// reply builds it (no memo), then with a memo of another cluster's table; the
// agreed block reaches the delegate with its ordinals resolved in the
// cluster's table (as the leader sends it) and the member with them resolved
// in another cluster's; a PERSIST echo reaches the delegate with its keys
// resolved in the deployment's key table and the member with keys resolved in
// another deployment's. Both nodes end with the pool, the height and the
// state of the reference.
func TestIndexMemoOrNoMemoSameOutcome(t *testing.T) {
	r, number, es := indexCase(t)
	var txns []types.SequencedTx
	for _, e := range es {
		txns = append(txns, types.SequencedTx{Seq: e.seq, Tx: e.tx})
	}
	squat := types.SequencedTx{Seq: es[1].seq, Tx: r.squatter()}
	deliver := func(what string, fn func(i int, nn *NormalNode), ref func(*refNode)) {
		t.Helper()
		for i, nn := range r.nodes {
			nn.bind(simnet.NewInjectedContext(r.c.Net, nn.ep), func() { fn(i, nn) })
			ref(r.refs[i])
			r.check(what, i)
		}
	}
	batches := func(txns []types.SequencedTx) []*SeqBatch {
		resolved, foreign := &SeqBatch{Txns: txns}, &SeqBatch{Txns: txns}
		resolved.resolve(r.c.Hashes)
		foreign.resolve(foreignHashes(r))
		return []*SeqBatch{resolved, {Txns: txns}, foreign}
	}
	// The squatter takes es[1]'s slot first, so the batch also walks the
	// occupied-slot path with and without ordinals.
	for round, b := range [][]*SeqBatch{batches([]types.SequencedTx{squat}), batches(txns[:2]), batches(txns)} {
		for _, variant := range [][2]int{{0, 1}, {0, 2}} {
			deliver(fmt.Sprintf("round %d batch", round),
				func(i int, nn *NormalNode) { nn.onSeqBatch(b[variant[i]]) },
				func(ref *refNode) { ref.onSeqBatch(b[0].Txns) })
		}
	}
	plan := r.blocks[number]
	blocks := make([]*BlockMsg, 2)
	for i, hashes := range []*dense.Table[types.TxID]{r.c.Hashes, foreignHashes(r)} {
		blocks[i] = &BlockMsg{Number: plan.msg.Number, Ordering: plan.msg.Ordering, Cert: plan.msg.Cert}
		blocks[i].resolve(hashes)
	}
	deliver("block", func(i int, nn *NormalNode) { nn.onBlock(blocks[i]) },
		func(ref *refNode) { ref.onBlock(uint64(number), plan) })

	elsewhere := ledger.NewState() // another deployment: its own key table
	elsewhere.Put("unrelated", nil, ledger.Version{})
	for cn := 0; cn < r.refs[0].quorum; cn++ {
		var plain []PersistEntry
		for i := range es {
			plain = append(plain, es[i].persistEntry(es[i].seq, "v"))
		}
		msgs := make([]*PersistMsg, 2)
		for i, st := range []*ledger.State{r.nodes[0].base, elsewhere} {
			entries := append([]PersistEntry(nil), plain...)
			for j := range entries {
				entries[j].kids = st.Resolve(entries[j].Writes)
			}
			msgs[i] = &PersistMsg{Node: cn, Entries: echoes(entries...)}
			msgs[i].sign(r.c.ConsNodes[cn].Sign)
		}
		from := r.c.ConsNodes[cn].Ep.ID()
		deliver(fmt.Sprintf("persist cn%d", cn),
			func(i int, nn *NormalNode) { nn.onPersist(from, msgs[i]) },
			func(ref *refNode) { ref.onPersist(cn, plain) })
	}
	r.fetchAll()
	for i, nn := range r.nodes {
		if nn.commitHeight != uint64(number)+1 {
			t.Fatalf("node %d stopped at height %d, block %d did not commit", i, nn.commitHeight, number)
		}
	}
	if !r.nodes[0].base.Equal(r.nodes[1].base) || r.nodes[0].base.Digest() != r.nodes[1].base.Digest() {
		t.Fatal("the node that applied by id and the node that applied by name diverge")
	}
	applied := 0
	for _, e := range es {
		if _, _, ok := r.nodes[1].base.Get(fmt.Sprintf("m-%d", e.seq)); ok {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("the block applied no write: the case exercised nothing")
	}
}

// PERSIST echoes reach a node with their hash's ordinal resolved in the
// cluster's table (as ResultEntry.warm leaves it), in another cluster's, or
// with none. Whichever, the quorum forms at the same consensus node's echo,
// the node adopts the same result and commits the same state, and echoes
// naming a hash that already committed start no tally.
func TestPersistOrdinalOrNoneSameOutcome(t *testing.T) {
	type outcome struct {
		quorumAt []int // per entry, the consensus node whose echo completed its quorum
		adopted  []crypto.Digest
		height   uint64
		state    crypto.Digest
	}
	var outcomes []outcome
	for _, variant := range []string{"cluster table", "foreign table", "no memo"} {
		r, number, es := indexCase(t)
		nn := r.nodes[0]
		foreign := foreignHashes(r)
		echo := func(e planEntry, seq uint64) *PersistEntry {
			pe := e.persistEntry(seq, "v")
			id := func(int) types.TxID { return pe.TxID }
			switch variant {
			case "cluster table":
				pe.ord.Resolve(r.c.Hashes, make([]uint32, 1), id)
			case "foreign table":
				pe.ord.Resolve(foreign, make([]uint32, 1), id)
			}
			return &pe
		}
		deliver := func(cn int, entries []*PersistEntry) {
			msg := &PersistMsg{Node: cn, Entries: entries}
			msg.sign(r.c.ConsNodes[cn].Sign)
			nnWithCtx(r.c, nn, func() { nn.onPersist(r.c.ConsNodes[cn].Ep.ID(), msg) })
		}
		var txns []types.SequencedTx
		var shared []*PersistEntry // one object per echo, sent by every consensus node
		for _, e := range es {
			txns = append(txns, types.SequencedTx{Seq: e.seq, Tx: e.tx})
			shared = append(shared, echo(e, e.seq))
		}
		nnWithCtx(r.c, nn, func() { nn.onSeqBatch(&SeqBatch{Txns: txns}) })

		o := outcome{quorumAt: make([]int, len(es)), adopted: make([]crypto.Digest, len(es))}
		for j := range o.quorumAt {
			o.quorumAt[j] = -1
		}
		for cn := range r.c.ConsNodes {
			deliver(cn, shared)
			for j, e := range es {
				if ps := persistAt(nn, e.seq); o.quorumAt[j] < 0 && ps != nil && ps.result != nil {
					o.quorumAt[j], o.adopted[j] = cn, ps.result.contentKey()
				}
			}
		}
		nnWithCtx(r.c, nn, func() { nn.onBlock(r.blocks[number].msg) })
		o.height, o.state = nn.commitHeight, nn.base.Digest()
		if o.height != uint64(number)+1 {
			t.Fatalf("%s: block %d did not commit (height %d)", variant, number, o.height)
		}
		stale := es[0].seq + 9000
		for cn := range r.c.ConsNodes {
			deliver(cn, []*PersistEntry{echo(es[0], stale)})
		}
		if persistAt(nn, stale) != nil {
			t.Fatalf("%s: echoes for a committed hash started a tally", variant)
		}
		outcomes = append(outcomes, o)
	}
	for _, o := range outcomes {
		for j, cn := range o.quorumAt {
			if cn != outcomes[0].quorumAt[j] || o.adopted[j] != outcomes[0].adopted[j] {
				t.Fatalf("entry %d: quorum at consensus node %d adopting %x; with the cluster's ordinal at %d adopting %x",
					j, cn, o.adopted[j][:4], outcomes[0].quorumAt[j], outcomes[0].adopted[j][:4])
			}
		}
		if o.height != outcomes[0].height || o.state != outcomes[0].state {
			t.Fatal("the same echoes with another ordinal memo commit another state")
		}
	}
	if outcomes[0].quorumAt[0] != outcomes[0].quorumAt[len(outcomes[0].quorumAt)-1] || outcomes[0].quorumAt[0] < 0 {
		t.Fatalf("quorum moments %v: the case exercised nothing", outcomes[0].quorumAt)
	}
}

// A normal node tallies echoes for hashes its cluster never numbered, with a
// memo of another cluster's table or with none, without adding them to the
// cluster's table: only a writer (sequencer, delegate, orderer) interns.
func TestPersistReceiverNeverInterns(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	nn := c.Orgs[1][0]
	foreign := dense.NewTable[types.TxID]()
	msg := persistBatch(gen.Batch(8))
	for i, e := range msg.Entries {
		if i%2 == 0 {
			e.ord.Resolve(foreign, make([]uint32, 1), func(int) types.TxID { return e.TxID })
		}
	}
	before := len(c.Hashes.Names())
	for cn := range c.ConsNodes {
		batch := &PersistMsg{Node: cn, Entries: msg.Entries}
		batch.sign(c.ConsNodes[cn].Sign)
		nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[cn].Ep.ID(), batch) })
	}
	if ps := persistAt(nn, 9001); ps == nil || ps.result == nil {
		t.Fatal("the echoes did not reach their quorum")
	}
	if after := len(c.Hashes.Names()); after != before {
		t.Fatalf("receiving echoes grew the cluster's hash table from %d to %d names", before, after)
	}
}

// BenchmarkNormalNodeCommit's bytes per 500-transaction block stay under a
// ceiling: 194 KB while the node kept a map by hash and a map by key, 96 KB
// measured with both as arrays by id; the ceiling is that + 15 %.
func TestNormalNodeCommitBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark run")
	}
	if raceBuild {
		t.Skip("sync.Pool drops Puts under -race: byte pin holds for the plain build only")
	}
	r := testing.Benchmark(func(b *testing.B) { benchNormalNodeCommit(b, DefaultConfig(), false) })
	if b := r.AllocedBytesPerOp(); b > 110_000 {
		t.Fatalf("a normal node allocates %d bytes per committed block; ceiling 110000", b)
	}
}

// The same on setting B (BenchmarkNormalNodeCommit/B), over twenty blocks
// after three to warm up: 97 x 500 echoes reach the node per block and cost it
// no allocation of their own, the tally living by value in the slot.
// Measured 87-93 KB in 795-859 allocations per block; the ceilings are that
// + 15 %. One allocation per echo would be 48 500 more.
func TestNormalNodeCommitBytesSettingB(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts under -race: byte pin holds for the plain build only")
	}
	f := newCommitBench(t, settingB(), true)
	for i := 0; i < 3; i++ {
		f.next(t)()
	}
	const blocks = 20
	var bytes, allocs uint64
	for i := 0; i < blocks; i++ {
		deliver := f.next(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		deliver()
		runtime.ReadMemStats(&after)
		bytes, allocs = bytes+after.TotalAlloc-before.TotalAlloc, allocs+after.Mallocs-before.Mallocs
	}
	if f.nn.commitHeight != 3+blocks {
		t.Fatalf("committed %d of %d blocks", f.nn.commitHeight, 3+blocks)
	}
	if b, n := bytes/blocks, allocs/blocks; b > 107_000 || n > 990 {
		t.Fatalf("on setting B a normal node allocates %d bytes in %d allocations per committed block; ceilings 107000 and 990", b, n)
	}
}

// What a normal node keeps in records for committed transactions, twenty
// 500-transaction blocks in: the heap its record pages retain, which dropping
// them frees. 24.3 bytes per transaction while every record stayed; 0.4
// measured once wholly committed pages give way to the shared retired page
// (the open page and the page directory); the ceiling is 1.
func TestNormalNodeRecordBytesPerCommittedTxn(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's allocations blur a retained-heap pin: it holds for the plain build only")
	}
	f := newCommitBench(t, DefaultConfig(), false)
	const blocks = 20
	for i := 0; i < blocks; i++ {
		f.next(t)()
	}
	if f.nn.commitHeight != blocks {
		t.Fatalf("committed %d of %d blocks", f.nn.commitHeight, blocks)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties sync.Pool's victim cache
	runtime.ReadMemStats(&before)
	f.nn.pool.recs, f.nn.pool.done = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	txns := blocks * f.c.Cfg.BlockSize
	if per := float64(int64(before.HeapAlloc)-int64(after.HeapAlloc)) / float64(txns); per > 1 {
		t.Fatalf("a normal node's records retain %.1f bytes per committed transaction; ceiling 1", per)
	}
}
