package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/types"
)

func poolTx(n uint64) *types.Transaction {
	return &types.Transaction{Client: "c", Nonce: n, Contract: "x", Fn: "f"}
}

// newTxPool returns a pool over a hash table of its own; a cluster's nodes
// share the cluster's (newTxPoolOn).
func newTxPool() *txPool { return newTxPoolOn(dense.NewTable[types.TxID]()) }

// seqOf returns the pooled sequence number of a hash.
func (p *txPool) seqOf(id types.TxID) (uint64, bool) {
	r := p.known(id)
	return r.seq, r.pooled
}

// isCommitted reports whether the hash already committed.
func (p *txPool) isCommitted(id types.TxID) bool { return p.known(id).committed }

// add attempts to insert tx at seq.
func (p *txPool) add(seq uint64, tx *types.Transaction) addResult {
	return p.addOrd(seq, tx, p.hashes.Intern(tx.ID()))
}

// replace forcibly installs tx at seq, evicting any different occupant.
func (p *txPool) replace(seq uint64, tx *types.Transaction) {
	p.replaceOrd(seq, tx, p.hashes.Intern(tx.ID()))
}

// markCommitted removes a transaction and bars its hash from re-entry.
func (p *txPool) markCommitted(id types.TxID) {
	ord := p.hashes.Intern(id)
	p.commit(p.rec(ord), ord)
}

func TestPoolFirstReceivedWins(t *testing.T) {
	p := newTxPool()
	a, b := poolTx(1), poolTx(2)
	if p.add(5, a) != poolAdded {
		t.Fatal("first add rejected")
	}
	if p.add(5, b) != poolDupSeq {
		t.Fatal("conflicting seq not reported")
	}
	if got, _ := p.at(5); got != a {
		t.Fatal("first-received did not win")
	}
	// The loser's hash is not barred: it can take another slot.
	if p.add(6, b) != poolAdded {
		t.Fatal("loser could not take a fresh slot")
	}
}

func TestPoolReplayCheck(t *testing.T) {
	p := newTxPool()
	a := poolTx(1)
	p.add(5, a)
	if p.add(7, a) != poolDupHash {
		t.Fatal("replayed hash accepted at a second slot")
	}
	if p.add(5, a) != poolDupHash {
		t.Fatal("exact duplicate not detected as replay")
	}
}

func TestPoolCommittedBarsReentry(t *testing.T) {
	p := newTxPool()
	a := poolTx(1)
	p.add(5, a)
	p.markCommitted(a.ID())
	if !p.isCommitted(a.ID()) {
		t.Fatal("not marked committed")
	}
	if _, ok := p.at(5); ok {
		t.Fatal("committed txn still pooled")
	}
	if p.add(9, a) != poolDupHash {
		t.Fatal("committed hash re-entered the pool")
	}
}

func TestPoolReplaceEvictsSquatter(t *testing.T) {
	p := newTxPool()
	crafted, real := poolTx(1), poolTx(2)
	p.add(5, crafted)
	p.replace(5, real)
	if got, _ := p.at(5); got != real {
		t.Fatal("replace did not install the authoritative txn")
	}
	if _, ok := p.byID(crafted.ID()); ok {
		t.Fatal("evicted squatter still indexed by hash")
	}
	// Replacing with a committed txn is a no-op.
	p.markCommitted(real.ID())
	other := poolTx(3)
	p.add(6, other)
	p.replace(6, real)
	if got, _ := p.at(6); got != other {
		t.Fatal("committed txn displaced a live one")
	}
}

func TestPoolReplaceMovesSeq(t *testing.T) {
	p := newTxPool()
	a := poolTx(1)
	p.add(5, a)
	// The same txn re-sequenced at a new slot: old mapping must go.
	p.replace(9, a)
	if _, ok := p.at(5); ok {
		t.Fatal("old slot still occupied after move")
	}
	if seq, ok := p.seqOf(a.ID()); !ok || seq != 9 {
		t.Fatalf("hash index seq = %d, want 9", seq)
	}
}

func TestPoolDropUnindexes(t *testing.T) {
	p := newTxPool()
	for _, s := range []uint64{9, 2, 7, 4} {
		p.add(s, poolTx(s))
	}
	p.drop(7)
	if _, ok := p.at(7); ok {
		t.Fatal("drop left the slot occupied")
	}
	if _, ok := p.byID(poolTx(7).ID()); ok {
		t.Fatal("dropped txn still indexed")
	}
	// Unlike a commit, a drop does not bar the hash.
	if p.add(8, poolTx(7)) != poolAdded {
		t.Fatal("dropped txn could not take a fresh slot")
	}
}

// Five pages of ordinals commit in an order scrambled across pages: pages 0-2
// wholly, page 3 all but one ordinal another node interned and this one never
// heard of, page 4 all but one transaction still pooled. Every committed hash
// stays barred whichever path replays it, at a free or an occupied sequence
// number, and the two left out read afterwards as they did before.
func TestPoolCommittedPagesBarReplays(t *testing.T) {
	const pages, base = 5, 1000
	hashes := dense.NewTable[types.TxID]()
	txs := make([]*types.Transaction, pages*dense.PageSize)
	for i := range txs {
		txs[i] = poolTx(uint64(i))
		if ord := hashes.Intern(txs[i].ID()); ord != uint32(i) {
			t.Fatalf("transaction %d interned as ordinal %d", i, ord)
		}
	}
	stranger, pooled := 3*dense.PageSize+17, 4*dense.PageSize+40
	p := newTxPoolOn(hashes)
	for i, tx := range txs {
		if i != stranger && p.add(base+uint64(i), tx) != poolAdded {
			t.Fatalf("transaction %d not pooled", i)
		}
	}
	for _, i := range rand.New(rand.NewSource(7)).Perm(len(txs)) {
		if i != stranger && i != pooled {
			p.markCommitted(txs[i].ID())
		}
	}
	occupant := poolTx(1 << 20)
	if p.add(5, occupant) != poolAdded {
		t.Fatal("occupant not pooled")
	}
	for i, tx := range txs {
		if i == stranger || i == pooled {
			continue
		}
		id, seq := tx.ID(), base+uint64(i)
		if !p.isCommitted(id) {
			t.Fatalf("transaction %d not committed", i)
		}
		if p.add(seq, tx) != poolDupHash || p.add(7, tx) != poolDupHash || p.add(5, tx) != poolDupHash ||
			p.addOrd(9, tx, uint32(i)) != poolDupHash || p.addOrd(5, tx, uint32(i)) != poolDupHash {
			t.Fatalf("committed transaction %d re-added without a replay rejection", i)
		}
		p.replace(seq, tx)
		p.replace(5, tx)
		p.replace(11, tx)
		if _, ok := p.byID(id); ok {
			t.Fatalf("committed transaction %d pooled again by a replay", i)
		}
		if !p.isCommitted(id) {
			t.Fatalf("transaction %d no longer committed after its replays", i)
		}
	}
	for _, s := range []uint64{7, 9, 11} {
		if _, ok := p.at(s); ok {
			t.Fatalf("a replayed committed hash holds sequence number %d", s)
		}
	}
	if got, _ := p.at(5); got != occupant {
		t.Fatal("a replayed committed hash displaced the occupant")
	}
	for i := range txs {
		if _, ok := p.at(base + uint64(i)); ok != (i == pooled) {
			t.Fatalf("sequence number of transaction %d: occupied %t", i, ok)
		}
	}
	if seq, ok := p.seqOf(txs[pooled].ID()); !ok || seq != base+uint64(pooled) || p.isCommitted(txs[pooled].ID()) {
		t.Fatalf("the uncommitted neighbour reads at %d, %t, committed %t", seq, ok, p.isCommitted(txs[pooled].ID()))
	}
	id := txs[stranger].ID()
	if _, ok := p.byID(id); ok || p.isCommitted(id) {
		t.Fatal("a hash this node never heard of reads as pooled or committed")
	}
	if _, ok := p.seqOf(id); ok {
		t.Fatal("a hash this node never heard of reads as sequenced")
	}
	if p.add(base+uint64(stranger), txs[stranger]) != poolAdded {
		t.Fatal("a hash this node never heard of was rejected")
	}
}

// privateRecPages counts p's record pages other than retiredRecs.
func privateRecPages(p *txPool) (n int) {
	for _, pg := range p.recs {
		if pg != nil && pg != retiredRecs {
			n++
		}
	}
	return n
}

// retiredPristine reports whether every record of the shared retired page
// still reads committed and nothing else.
func retiredPristine() bool {
	for _, r := range retiredRecs {
		if r != (txRec{committed: true}) {
			return false
		}
	}
	return true
}

// Ten pages of ordinals committed in a scrambled order leave at most one
// private record page: the others gave way to the shared retired page. A page
// holding an ordinal the node never heard of keeps its own, and marking a
// retired record gives its page a private copy again, the shared one intact.
func TestCommittedPagesRetire(t *testing.T) {
	const pages = 10
	p := newTxPool()
	txs := make([]*types.Transaction, (pages+1)*dense.PageSize)
	for i := range txs {
		txs[i] = poolTx(uint64(i))
		p.hashes.Intern(txs[i].ID())
	}
	for _, i := range rand.New(rand.NewSource(5)).Perm(pages * dense.PageSize) {
		if p.add(uint64(i), txs[i]) != poolAdded {
			t.Fatalf("transaction %d not pooled", i)
		}
		p.markCommitted(txs[i].ID())
	}
	if n := privateRecPages(p); n > 1 {
		t.Fatalf("%d pages of committed ordinals left %d private record pages, want at most 1", pages, n)
	}
	for i := pages * dense.PageSize; i < len(txs)-1; i++ {
		p.markCommitted(txs[i].ID())
	}
	if n := privateRecPages(p); n != 1 {
		t.Fatalf("a page with an ordinal the node never heard of retired (%d private record pages)", n)
	}
	if p.known(txs[len(txs)-1].ID()) != (txRec{}) {
		t.Fatal("an ordinal the node never heard of reads as a non-zero record")
	}
	r, squatter := p.agree(1<<20, 3)
	if !r.committed || !r.agreed || squatter != nil || privateRecPages(p) != 2 {
		t.Fatalf("agreeing on a retired record: committed %t, agreed %t, squatter %t, %d private pages",
			r.committed, r.agreed, squatter != nil, privateRecPages(p))
	}
	if !retiredPristine() {
		t.Fatal("a write reached the shared retired page")
	}
	for i := 0; i < pages*dense.PageSize; i++ {
		if !p.isCommitted(txs[i].ID()) || p.add(uint64(i)+1<<30, txs[i]) != poolDupHash {
			t.Fatalf("transaction %d is no longer barred", i)
		}
	}
}

// A consensus node keeps a slot per sequence number for its life. It went from
// 64 to 32 bytes when the hash was kept as its ordinal in the cluster's table.
func TestConsSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(consSlot{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(consSlot{}) = %d, want 32", got)
	}
}
