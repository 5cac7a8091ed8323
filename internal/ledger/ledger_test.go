package ledger

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/bidl-framework/bidl/internal/types"
)

func TestStateGetPut(t *testing.T) {
	s := NewState()
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("empty state returned a value")
	}
	s.Put("k", []byte("v"), Version{Block: 1, Tx: 2})
	val, ver, ok := s.Get("k")
	if !ok || string(val) != "v" || ver != (Version{Block: 1, Tx: 2}) {
		t.Fatalf("got %q %v %v", val, ver, ok)
	}
	s.Delete("k")
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestStateApplyAndDigest(t *testing.T) {
	a, b := NewState(), NewState()
	writes := []Write{{Key: "x", Val: []byte("1")}, {Key: "y", Val: []byte("2")}}
	a.Apply(writes, Version{Block: 1})
	// Apply in a different order on b; digest must match (sorted keys).
	b.Apply([]Write{writes[1], writes[0]}, Version{Block: 1})
	if a.Digest() != b.Digest() {
		t.Fatal("same content produced different digests")
	}
	b.Apply([]Write{{Key: "x", Val: []byte("9")}}, Version{Block: 2})
	if a.Digest() == b.Digest() {
		t.Fatal("different content produced same digest")
	}
	a.Apply([]Write{{Key: "y", Delete: true}}, Version{Block: 3})
	if _, _, ok := a.Get("y"); ok {
		t.Fatal("Apply with Delete did not remove key")
	}
}

func TestStateClone(t *testing.T) {
	s := NewState()
	s.Put("k", []byte("v"), Version{})
	c := s.Clone()
	c.Put("k", []byte("changed"), Version{})
	if val, _, _ := s.Get("k"); string(val) != "v" {
		t.Fatal("clone aliases original")
	}
}

func TestMVCCValidation(t *testing.T) {
	s := NewState()
	s.Put("acct", []byte("100"), Version{Block: 1, Tx: 0})

	ok := &RWSet{Reads: []Read{{Key: "acct", Ver: Version{Block: 1, Tx: 0}, Existed: true}}}
	if !ValidateMVCC(s, ok) {
		t.Fatal("matching read version rejected")
	}

	stale := &RWSet{Reads: []Read{{Key: "acct", Ver: Version{Block: 0, Tx: 0}, Existed: true}}}
	if ValidateMVCC(s, stale) {
		t.Fatal("stale read version accepted")
	}

	phantomGone := &RWSet{Reads: []Read{{Key: "missing", Existed: true}}}
	if ValidateMVCC(s, phantomGone) {
		t.Fatal("read of now-missing key accepted")
	}

	phantomNew := &RWSet{Reads: []Read{{Key: "acct", Existed: false}}}
	if ValidateMVCC(s, phantomNew) {
		t.Fatal("key created since absent-read accepted")
	}

	absentOK := &RWSet{Reads: []Read{{Key: "nope", Existed: false}}}
	if !ValidateMVCC(s, absentOK) {
		t.Fatal("still-absent read rejected")
	}
}

func TestMVCCContentionAborts(t *testing.T) {
	// Two transactions endorsed against the same snapshot both read
	// acct@v1; committing the first bumps the version, so the second must
	// fail MVCC — HLF's contention abort that BIDL avoids.
	s := NewState()
	s.Put("acct", []byte("100"), Version{Block: 1, Tx: 0})
	read := Read{Key: "acct", Ver: Version{Block: 1, Tx: 0}, Existed: true}
	tx1 := &RWSet{Reads: []Read{read}, Writes: []Write{{Key: "acct", Val: []byte("90")}}}
	tx2 := &RWSet{Reads: []Read{read}, Writes: []Write{{Key: "acct", Val: []byte("80")}}}
	if !ValidateMVCC(s, tx1) {
		t.Fatal("first contending txn rejected")
	}
	s.Apply(tx1.Writes, Version{Block: 2, Tx: 0})
	if ValidateMVCC(s, tx2) {
		t.Fatal("second contending txn accepted; expected MVCC abort")
	}
}

func TestRWSetDigestAndEqual(t *testing.T) {
	a := &RWSet{Writes: []Write{{Key: "k", Val: []byte("v")}}}
	b := &RWSet{Writes: []Write{{Key: "k", Val: []byte("v")}},
		Reads: []Read{{Key: "other"}}}
	if a.Digest() != b.Digest() {
		t.Fatal("reads should not affect result digest")
	}
	if !a.Equal(b) {
		t.Fatal("equal write sets reported unequal")
	}
	c := &RWSet{Writes: []Write{{Key: "k", Val: []byte("w")}}}
	if a.Digest() == c.Digest() || a.Equal(c) {
		t.Fatal("different writes reported equal")
	}
	d := &RWSet{Writes: []Write{{Key: "k", Val: []byte("v")}}, Aborted: true}
	if a.Digest() == d.Digest() || a.Equal(d) {
		t.Fatal("abort flag ignored in result comparison")
	}
	del := &RWSet{Writes: []Write{{Key: "k", Delete: true}}}
	notDel := &RWSet{Writes: []Write{{Key: "k", Val: []byte{0xFF}}}}
	if del.Digest() == notDel.Digest() {
		t.Fatal("delete marker collides with value 0xFF")
	}
}

// TestRWSetDigestAllocs pins a two-write result's digest at zero
// allocations: the parts are framed into a stack buffer, not a slice of
// converted parts.
func TestRWSetDigestAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation pins hold for the plain build only")
	}
	rw := &RWSet{Writes: []Write{{Key: "sb:chk:acct-1", Val: []byte("900")}, {Key: "sb:chk:acct-2", Val: []byte("1100")}}}
	if allocs := testing.AllocsPerRun(200, func() { rw.Digest() }); allocs != 0 {
		t.Fatalf("Digest of two writes = %v allocs/op, want 0", allocs)
	}
}

func TestOverlayReadThrough(t *testing.T) {
	base := NewState()
	base.Put("a", []byte("base"), Version{Block: 1})
	o := NewOverlay(base)
	if v, _, ok := o.Get("a"); !ok || string(v) != "base" {
		t.Fatal("overlay did not read through to base")
	}
	o.Put("a", []byte("spec"), Version{Block: 2})
	if v, _, _ := o.Get("a"); string(v) != "spec" {
		t.Fatal("overlay write not visible")
	}
	if v, _, _ := base.Get("a"); string(v) != "base" {
		t.Fatal("overlay write leaked to base")
	}
}

func TestOverlayDiscard(t *testing.T) {
	base := NewState()
	base.Put("a", []byte("base"), Version{})
	o := NewOverlay(base)
	o.Put("a", []byte("spec"), Version{})
	o.Put("b", []byte("new"), Version{})
	o.Delete("a")
	o.Discard()
	if v, _, ok := o.Get("a"); !ok || string(v) != "base" {
		t.Fatal("discard did not restore base view")
	}
	if _, _, ok := o.Get("b"); ok {
		t.Fatal("discard left speculative key")
	}
	if o.Pending() != 0 {
		t.Fatal("pending count nonzero after discard")
	}
}

func TestOverlayCommit(t *testing.T) {
	base := NewState()
	base.Put("a", []byte("base"), Version{})
	base.Put("dead", []byte("x"), Version{})
	o := NewOverlay(base)
	o.Put("a", []byte("spec"), Version{Block: 5})
	o.Delete("dead")
	o.Commit()
	if v, _, _ := base.Get("a"); string(v) != "spec" {
		t.Fatal("commit did not flush writes")
	}
	if _, _, ok := base.Get("dead"); ok {
		t.Fatal("commit did not flush deletion")
	}
	if o.Pending() != 0 {
		t.Fatal("overlay not reset after commit")
	}
}

func TestOverlayDeleteShadowsBase(t *testing.T) {
	base := NewState()
	base.Put("a", []byte("base"), Version{})
	o := NewOverlay(base)
	o.Delete("a")
	if _, _, ok := o.Get("a"); ok {
		t.Fatal("deleted key visible through overlay")
	}
	o.Put("a", []byte("again"), Version{})
	if v, _, ok := o.Get("a"); !ok || string(v) != "again" {
		t.Fatal("re-put after delete not visible")
	}
}

func makeBlock(n uint64, prev [32]byte) *types.Block {
	tx := &types.Transaction{Client: "c", Nonce: n, Contract: "x", Fn: "f"}
	return &types.Block{Number: n, Prev: prev, Seqs: []uint64{n}, Hashes: []types.TxID{tx.ID()}}
}

func TestBlockStoreChaining(t *testing.T) {
	bs := NewBlockStore()
	b0 := makeBlock(0, bs.LastDigest())
	if err := bs.Append(b0); err != nil {
		t.Fatal(err)
	}
	b1 := makeBlock(1, bs.LastDigest())
	if err := bs.Append(b1); err != nil {
		t.Fatal(err)
	}
	if bs.Height() != 2 {
		t.Fatalf("height = %d, want 2", bs.Height())
	}
	if bs.Get(0) != b0 || bs.Get(1) != b1 || bs.Get(2) != nil {
		t.Fatal("Get returned wrong blocks")
	}

	// Wrong number.
	bad := makeBlock(5, bs.LastDigest())
	if err := bs.Append(bad); err == nil {
		t.Fatal("gap in block numbers accepted")
	}
	// Wrong prev digest.
	bad2 := makeBlock(2, [32]byte{1, 2, 3})
	if err := bs.Append(bad2); err == nil {
		t.Fatal("broken prev link accepted")
	}
}

func TestBlockStoreEqualAndPrefix(t *testing.T) {
	a, b := NewBlockStore(), NewBlockStore()
	for i := uint64(0); i < 3; i++ {
		blkA := makeBlock(i, a.LastDigest())
		if err := a.Append(blkA); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			blkB := makeBlock(i, b.LastDigest())
			if err := b.Append(blkB); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.Equal(b) {
		t.Fatal("chains of different heights reported equal")
	}
	if !a.CommonPrefixEqual(b) {
		t.Fatal("prefix chains reported divergent")
	}
}

// TestBlockStoreComparesEveryHeight: the comparisons read the digests recorded
// at Append, and they read all of them. Two chains that differ at one middle
// height fail both, whether the difference chains forward to the tip (as it
// must through Append) or, with recorded digests forced equal everywhere else,
// sits at that height alone, where a tip-only comparison would pass.
func TestBlockStoreComparesEveryHeight(t *testing.T) {
	a, forked, middle := NewBlockStore(), NewBlockStore(), NewBlockStore()
	for i := uint64(0); i < 5; i++ {
		blk := makeBlock(i, a.LastDigest())
		if err := a.Append(blk); err != nil {
			t.Fatal(err)
		}
		other := makeBlock(i, forked.LastDigest())
		if i == 2 {
			other.Seqs = []uint64{99}
		}
		if err := forked.Append(other); err != nil {
			t.Fatal(err)
		}
		digest := blk.HeaderDigest()
		if i == 2 {
			digest[0] ^= 1
		}
		if err := middle.AppendHashed(&types.Block{Number: i, Prev: middle.LastDigest()}, digest); err != nil {
			t.Fatal(err)
		}
	}
	if a.LastDigest() != middle.LastDigest() || a.LastDigest() == forked.LastDigest() {
		t.Fatal("test chains are not the pair the comparisons are meant to tell apart")
	}
	for name, o := range map[string]*BlockStore{"forked at height 2": forked, "differing at height 2 only": middle} {
		if a.Equal(o) || o.Equal(a) {
			t.Fatalf("chain %s reported equal", name)
		}
		if a.CommonPrefixEqual(o) || o.CommonPrefixEqual(a) {
			t.Fatalf("chain %s reported prefix-consistent", name)
		}
	}
	if b := NewBlockStore(); !a.CommonPrefixEqual(b) || a.Equal(b) {
		t.Fatal("the empty chain must be a prefix of, and not equal to, a non-empty one")
	}
}

func TestPropertyOverlayMatchesDirectApply(t *testing.T) {
	// Applying a random series of writes through an overlay then
	// committing must equal applying them directly to the state.
	f := func(ops []uint8) bool {
		direct := NewState()
		base := NewState()
		o := NewOverlay(base)
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%8)
			if op%5 == 0 {
				direct.Delete(key)
				o.Delete(key)
			} else {
				val := []byte{op, byte(i)}
				ver := Version{Block: uint64(i)}
				direct.Put(key, val, ver)
				o.Put(key, val, ver)
			}
		}
		o.Commit()
		return direct.Digest() == base.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMVCCAcceptsCurrentReads(t *testing.T) {
	// A read set captured from the current state always validates.
	f := func(keys []uint8) bool {
		s := NewState()
		for i, k := range keys {
			s.Put(fmt.Sprintf("k%d", k), []byte{k}, Version{Block: uint64(i)})
		}
		var rw RWSet
		for _, k := range keys {
			key := fmt.Sprintf("k%d", k)
			_, ver, ok := s.Get(key)
			rw.Reads = append(rw.Reads, Read{Key: key, Ver: ver, Existed: ok})
		}
		return ValidateMVCC(s, &rw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
