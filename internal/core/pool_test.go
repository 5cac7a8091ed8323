package core

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/types"
)

func poolTx(n uint64) *types.Transaction {
	return &types.Transaction{Client: "c", Nonce: n, Contract: "x", Fn: "f"}
}

// isCommitted reports whether the hash already committed.
func (p *txPool) isCommitted(id types.TxID) bool {
	r := p.known(id)
	return r != nil && r.committed
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
