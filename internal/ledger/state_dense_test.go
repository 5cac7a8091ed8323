package ledger

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/bidl-framework/bidl/internal/dense"
)

// Cases for the paged delta and the shared key table: TestStateModel's states
// each name their own keys, so what only replicas on one table do — compare
// position by position, apply by id — is driven here.

// replicas returns n empty states over base that share one key table, as the
// replicas of a deployment do.
func replicas(n int, base *Base) []*State {
	keys := dense.NewTable[string]()
	sts := make([]*State, n)
	for i := range sts {
		sts[i] = NewStateOn(keys)
		sts[i].SetBase(base)
	}
	return sts
}

// TestStateModel's checks over three replicas on one table: a and b write
// disjoint keys (each leaves holes in the pages the other fills), c writes
// a's keys through Resolve/ApplyResolved, sometimes with b's or a stranger's
// ids; every pair is compared with Equal after every operation.
func TestStateModelSharedTable(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := funcBase(modelBaseKeys)
		sts := replicas(3, base)
		aKeys, aAll := stateModelKeys("f", 0, modelBaseKeys/2)
		bKeys, bAll := stateModelKeys("g", modelBaseKeys/2, modelBaseKeys)
		states := []*modelState{
			{name: "a", st: sts[0], ref: newRefState(base), keys: aKeys},
			{name: "b", st: sts[1], ref: newRefState(base), keys: bKeys},
			{name: "c", st: sts[2], ref: newRefState(base), keys: aKeys},
		}
		stranger := NewState()
		universe := append(aAll, bAll...)
		for op := 0; op < 1000; op++ {
			m := states[rng.Intn(len(states))]
			all := aAll
			if m.name == "b" {
				all = bAll
			}
			var ws []Write
			for i := 1 + rng.Intn(4); i > 0; i-- {
				w := Write{Key: m.keys[rng.Intn(len(m.keys))], Val: []byte(fmt.Sprintf("v%d", rng.Intn(3)))}
				if rng.Intn(3) == 0 {
					w = Write{Key: all[rng.Intn(len(all))], Delete: true}
				}
				ws = append(ws, w)
			}
			ver := Version{Block: uint64(op)}
			resolver := []*State{m.st, m.st, states[1].st, stranger}[rng.Intn(4)]
			m.st.ApplyResolved(ws, resolver.Resolve(ws), ver)
			for _, w := range ws {
				if w.Delete {
					m.ref.del(w.Key)
				} else {
					m.ref.put(w.Key, w.Val, ver)
				}
			}
			checkStateModel(t, fmt.Sprintf("seed %d op %d %s.ApplyResolved(%d writes)", seed, op, m.name, len(ws)), states, universe)
		}
	}
}

// fanoutWrites is n writes over keys 0..n-1, a third of them base keys.
func fanoutWrites(n int) []Write {
	ws := make([]Write, n)
	for i := range ws {
		ws[i] = Write{Key: fmt.Sprintf("k%d", 3*i), Val: []byte("w")}
	}
	return ws
}

// allocatedBy returns the bytes fn allocates. Byte pins hold for the plain
// build: the race detector's allocator pads.
func allocatedBy(t *testing.T, fn func()) uint64 {
	if raceBuild {
		t.Skip("byte pin holds for the plain build only")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Fifty states on one Base apply the same 10 000 resolved writes: the keys
// are named once, in the table, and a state pays for its entries and little
// else. A map per state cost 3.4x the entries at the parent.
func TestStateApplyFanoutBytes(t *testing.T) {
	const states, n = 50, 10_000
	sts := replicas(states, funcBase(n))
	ws := fanoutWrites(n)
	var ids KeyIDs
	table := allocatedBy(t, func() { ids = sts[0].Resolve(ws) })
	fanout := allocatedBy(t, func() {
		for _, st := range sts {
			st.ApplyResolved(ws, ids, Version{Block: 1})
		}
	})
	entries := uint64(states * n * int(unsafe.Sizeof(entry{})))
	if limit := entries + entries/4; fanout > limit {
		t.Fatalf("%d states applying %d resolved writes allocated %d bytes, limit %d (1.25 x the entries)", states, n, fanout, limit)
	}
	t.Logf("%d states applying %d resolved writes allocated %d bytes, %.2f x the entries", states, n, fanout, float64(fanout)/float64(entries))
	if limit := uint64(n * 200); table > limit {
		t.Fatalf("naming %d keys once allocated %d bytes, limit %d", n, table, limit)
	}
	for i, st := range sts {
		if st.Len() != n+2*n/3 || !st.Equal(sts[0]) {
			t.Fatalf("state %d: Len %d, equal to state 0: %t", i, st.Len(), st.Equal(sts[0]))
		}
	}
}

// An entry is paid for per (replica, key) the replica wrote: a value and one
// word. It went from 48 to 32 bytes when the version and kind were packed.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want 32", got)
	}
}

// A version the packed word cannot hold panics, naming the bound, before the
// state changes.
func TestEntryVersionBound(t *testing.T) {
	for _, ver := range []Version{{Block: 1 << 32}, {Tx: 1 << 30}, {Tx: -1}} {
		st := NewState()
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "(Block < 2^32, 0 <= Tx < 2^30)") {
					t.Fatalf("Put at %+v: recovered %v; want a panic naming the bound", ver, r)
				}
			}()
			st.Put("k", []byte("v"), ver)
		}()
		if _, _, ok := st.Get("k"); ok || st.Len() != 0 {
			t.Fatalf("Put at %+v changed the state before panicking", ver)
		}
	}
}

// Ids resolved in another table — another deployment's state, or a state on
// no base — are not this state's ids: the write set goes by name and lands
// where Apply would have put it.
func TestApplyResolvedInAnotherTable(t *testing.T) {
	ws := append(fanoutWrites(40), Write{Key: "k3", Delete: true}, Write{Key: "never", Delete: true})
	sts := replicas(4, funcBase(60))
	byName, own, foreign, short := sts[0], sts[1], sts[2], sts[3]
	elsewhere := NewState() // its table numbers the keys in reverse
	for i := len(ws) - 1; i >= 0; i-- {
		elsewhere.Put(ws[i].Key, nil, Version{})
	}
	byName.Apply(ws, Version{Block: 2})
	own.ApplyResolved(ws, own.Resolve(ws), Version{Block: 2})
	foreign.ApplyResolved(ws, elsewhere.Resolve(ws), Version{Block: 2})
	short.ApplyResolved(ws, KeyIDs{table: short.keys, ids: make([]uint32, 3)}, Version{Block: 2})
	for name, st := range map[string]*State{"own ids": own, "foreign ids": foreign, "too few ids": short} {
		if !st.Equal(byName) || st.Digest() != byName.Digest() || st.Len() != byName.Len() {
			t.Fatalf("%s: state differs from Apply by name (Len %d, want %d)", name, st.Len(), byName.Len())
		}
		for _, w := range ws {
			got, ver, ok := st.Get(w.Key)
			want, wantVer, wantOK := byName.Get(w.Key)
			if ok != wantOK || string(got) != string(want) || ver != wantVer {
				t.Fatalf("%s: Get(%q) = %q, %v, %t; by name %q, %v, %t", name, w.Key, got, ver, ok, want, wantVer, wantOK)
			}
		}
	}
}

// ValidateResolved says what ValidateMVCC says, whoever resolved the read set:
// this state's table, another deployment's, nobody, or too few ids. Seeded
// reads over base keys, written keys, tombstones and keys nobody ever named,
// at the version the state holds and beside it.
func TestValidateResolvedMatchesByName(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sts := replicas(2, funcBase(30))
	st, sibling := sts[0], sts[1]
	elsewhere := NewState()
	var universe []string
	for i := 0; i < 60; i++ {
		universe = append(universe, fmt.Sprintf("k%d", i)) // k0..k29 are base keys
		elsewhere.Put(universe[i], nil, Version{})
	}
	for op := 0; op < 400; op++ {
		key := universe[rng.Intn(40)] // k40.. stay unnamed in st's table
		switch rng.Intn(3) {
		case 0:
			st.Put(key, []byte{byte(op)}, Version{Block: uint64(op), Tx: rng.Intn(3)})
		case 1:
			st.Delete(key)
		}
		var reads []Read
		for n := rng.Intn(4); n > 0; n-- {
			k := universe[rng.Intn(len(universe))]
			_, ver, ok := st.Get(k)
			switch rng.Intn(6) {
			case 0:
				ver.Tx++
			case 1:
				ok = !ok
			}
			reads = append(reads, Read{Key: k, Ver: ver, Existed: ok})
		}
		want := ValidateMVCC(st, &RWSet{Reads: reads})
		for name, ids := range map[string]KeyIDs{
			"own ids": readIDs(st, reads), "a sibling's ids": readIDs(sibling, reads),
			"foreign ids": readIDs(elsewhere, reads), "no ids": {}, "too few ids": {table: st.keys},
		} {
			if got := st.ValidateResolved(reads, ids); got != want {
				t.Fatalf("op %d, %s: ValidateResolved(%+v) = %t, by name %t", op, name, reads, got, want)
			}
		}
	}
}

// Equal between two states on one table compares position by position, and
// still tells apart a different value, a tombstone and nothing under one id —
// and still calls a write equal to the base value it shadows equal to no write.
func TestStateEqualPositional(t *testing.T) {
	base, keys := funcBase(200), dense.NewTable[string]()
	ws := fanoutWrites(100) // k0..k297: base keys below k200, fresh keys above
	fresh := func() *State {
		st := NewStateOn(keys)
		st.SetBase(base)
		st.ApplyResolved(ws, st.Resolve(ws), Version{Block: 1})
		return st
	}
	ref := fresh()
	for _, tc := range []struct {
		name  string
		edit  func(*State)
		equal bool
	}{
		{"untouched", func(*State) {}, true},
		{"another value for a base key", func(s *State) { s.Put("k3", []byte("x"), Version{}) }, false},
		{"another value for a fresh key", func(s *State) { s.Put("k297", []byte("x"), Version{}) }, false},
		{"a tombstone for a written base key", func(s *State) { s.Delete("k3") }, false},
		{"a tombstone for a written fresh key", func(s *State) { s.Delete("k297") }, false},
		{"a tombstone where the other wrote nothing", func(s *State) { s.Delete("k1") }, false},
		{"a value where the other wrote nothing", func(s *State) { s.Put("k1", []byte("x"), Version{}) }, false},
		{"a fresh key the other never wrote", func(s *State) { s.Put("zz", []byte("x"), Version{}) }, false},
		{"a fresh key written and deleted", func(s *State) { s.Put("zz", []byte("x"), Version{}); s.Delete("zz") }, true},
		{"the base value written over itself", func(s *State) { s.Put("k1", []byte("v1"), Version{Block: 9}) }, true},
		{"same value at another version", func(s *State) { s.Put("k3", []byte("w"), Version{Block: 9}) }, true},
		{"a whole page the other never stored to", func(s *State) {
			for i := 0; i < 100; i++ {
				s.Put(fmt.Sprintf("far%d", i), nil, Version{})
				s.Delete(fmt.Sprintf("far%d", i))
			}
			s.Put("k199", []byte("v199"), Version{})
		}, true},
	} {
		st := fresh()
		tc.edit(st)
		if st.Equal(ref) != tc.equal || ref.Equal(st) != tc.equal {
			t.Errorf("%s: Equal = %t / %t, want %t", tc.name, st.Equal(ref), ref.Equal(st), tc.equal)
		}
		if (st.Digest() == ref.Digest()) != tc.equal {
			t.Errorf("%s: Digest equality disagrees with Equal = %t", tc.name, tc.equal)
		}
	}
}

// Put and Delete ask the base about a key (a string parse of a functional
// base) at most once per call, and not at all once the state's own entry says
// value or tombstone.
func TestStateAsksTheBaseOnce(t *testing.T) {
	asked := 0
	inner := funcBase(10)
	sts := replicas(2, NewFuncBase(10, inner.keyAt, func(k string) ([]byte, bool) { asked++; return inner.lookup(k) }))
	st, other := sts[0], sts[1]
	step := func(what string, max int, fn func()) {
		t.Helper()
		asked = 0
		fn()
		if asked > max {
			t.Fatalf("%s asked the base %d times, want at most %d", what, asked, max)
		}
	}
	step("first Put of a base key", 1, func() { st.Put("k1", []byte("a"), Version{}) })
	step("Put over a value", 0, func() { st.Put("k1", []byte("b"), Version{}) })
	step("Delete of a value", 0, func() { st.Delete("k1") })
	step("Delete of a tombstone", 0, func() { st.Delete("k1") })
	step("Put over a tombstone", 0, func() { st.Put("k1", []byte("c"), Version{}) })
	step("first Put of a fresh key", 1, func() { st.Put("x", []byte("a"), Version{}) })
	step("Delete of an untouched base key", 1, func() { st.Delete("k2") })
	step("Delete of a key nobody wrote", 1, func() { st.Delete("never") })
	step("Delete of a key only another state wrote", 1, func() { other.Delete("x") })
	step("Put of a key only another state wrote", 1, func() { other.Put("x", []byte("a"), Version{}) })
	ws := []Write{{Key: "k1", Val: []byte("d")}, {Key: "k2", Delete: true}, {Key: "k3", Val: []byte("d")}, {Key: "k4", Delete: true}}
	step("ApplyResolved of two touched and two untouched keys", 2, func() { st.ApplyResolved(ws, st.Resolve(ws), Version{}) })
	if st.Len() != 10-2+1 || other.Len() != 11 {
		t.Fatalf("Len %d and %d after the sequence, want 9 and 11", st.Len(), other.Len())
	}
}

// Digest sorts the live pairs it collects; it does not also build a map the
// size of the base to find the values again.
func TestStateDigestBytes(t *testing.T) {
	const n = 50_000
	st := NewState()
	st.SetBase(funcBase(n))
	st.Put("k7", []byte("x"), Version{})
	got := allocatedBy(t, func() { st.Digest() })
	// 127 bytes per base key measured (the key and value funcBase builds, a
	// 40-byte pair, two hash parts, the key's bytes); 166 with the map.
	if limit := uint64(n * 145); got > limit {
		t.Fatalf("Digest over %d base keys allocated %d bytes (%d per key), limit %d per key", n, got, got/n, limit/n)
	}
}

// readIDs resolves a read set's keys in st's key table.
func readIDs(st *State, reads []Read) KeyIDs {
	return st.ids.Resolve(len(reads), func(i int) string { return reads[i].Key })
}
