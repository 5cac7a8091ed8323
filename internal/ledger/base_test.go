package ledger

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flatReplay mirrors every operation applied to a based state onto a flat
// one — the reference the CoW layer must be indistinguishable from.
type flatReplay struct {
	cow  *State
	flat *State
}

func newFlatReplay(b *Base) *flatReplay {
	r := &flatReplay{cow: NewState(), flat: NewState()}
	r.cow.SetBase(b)
	b.forEach(func(k string, v []byte) { r.flat.Put(k, v, Version{}) })
	return r
}

func (r *flatReplay) put(k string, v []byte, ver Version) {
	r.cow.Put(k, v, ver)
	r.flat.Put(k, v, ver)
}

func (r *flatReplay) del(k string) {
	r.cow.Delete(k)
	r.flat.Delete(k)
}

func (r *flatReplay) check(t *testing.T, keys []string) {
	t.Helper()
	if r.cow.Len() != r.flat.Len() {
		t.Fatalf("Len: cow %d, flat %d", r.cow.Len(), r.flat.Len())
	}
	if r.cow.Digest() != r.flat.Digest() {
		t.Fatal("Digest diverges from flat reference")
	}
	if !r.cow.Equal(r.flat) || !r.flat.Equal(r.cow) {
		t.Fatal("Equal(flat) is false")
	}
	for _, k := range keys {
		cv, cver, cok := r.cow.Get(k)
		fv, fver, fok := r.flat.Get(k)
		if cok != fok || string(cv) != string(fv) || cver != fver {
			t.Fatalf("Get(%q): cow (%q,%v,%v) flat (%q,%v,%v)", k, cv, cver, cok, fv, fver, fok)
		}
	}
}

// snapshotBase is a base over an explicit key→value map: a second way, next
// to funcBase's arithmetic, of describing a relation as a pure function.
func snapshotBase(entries map[string][]byte) *Base {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return NewFuncBase(len(keys),
		func(i int) string { return keys[i] },
		func(key string) ([]byte, bool) { v, ok := entries[key]; return v, ok })
}

func snapBase() *Base {
	return snapshotBase(map[string][]byte{
		"a": []byte("1"), "b": []byte("2"), "c": []byte("3"),
	})
}

// funcBase defines k0..k<n-1> as v0..v<n-1>. Names and values are built
// here, once, so a lookup allocates nothing a test measuring a state's bytes
// would count.
func funcBase(n int) *Base {
	keys, vals := make([]string, n), make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = "k"+strconv.Itoa(i), []byte("v"+strconv.Itoa(i))
	}
	return NewFuncBase(n,
		func(i int) string { return keys[i] },
		func(key string) ([]byte, bool) {
			if !strings.HasPrefix(key, "k") {
				return nil, false
			}
			i, err := strconv.Atoi(key[1:])
			if err != nil || i < 0 || i >= n || key != keys[i] {
				return nil, false
			}
			return vals[i], true
		})
}

func TestBasedStateMatchesFlat(t *testing.T) {
	for _, tc := range []struct {
		name string
		base *Base
		keys []string
	}{
		{"snapshot", snapBase(), []string{"a", "b", "c", "x", "y"}},
		{"functional", funcBase(5), []string{"k0", "k1", "k4", "k5", "x"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFlatReplay(tc.base)
			r.check(t, tc.keys)

			r.put("x", []byte("new"), Version{Block: 1})
			r.check(t, tc.keys)

			// Shadow a base key, then resurrect a deleted one.
			r.put(tc.keys[0], []byte("shadow"), Version{Block: 1, Tx: 1})
			r.check(t, tc.keys)
			r.del(tc.keys[1])
			r.check(t, tc.keys)
			r.put(tc.keys[1], []byte("back"), Version{Block: 2})
			r.check(t, tc.keys)

			// Delete a delta key, a shadowing key, and a missing key.
			r.del("x")
			r.del(tc.keys[0])
			r.del("never-there")
			r.check(t, tc.keys)
		})
	}
}

func TestBasedStateRandomOpsMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := newFlatReplay(funcBase(20))
	keyAt := func(i int) string { return "k" + strconv.Itoa(i) }
	allKeys := make([]string, 30)
	for i := range allKeys {
		allKeys[i] = keyAt(i) // k20..k29 are never in the base
	}
	for step := 0; step < 500; step++ {
		k := allKeys[rng.Intn(len(allKeys))]
		if rng.Intn(3) == 0 {
			r.del(k)
		} else {
			r.put(k, []byte(fmt.Sprintf("s%d", step)), Version{Block: uint64(step)})
		}
	}
	r.check(t, allKeys)
}

func TestSetBaseNonEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetBase on a non-empty state did not panic")
		}
	}()
	s := NewState()
	s.Put("k", []byte("v"), Version{})
	s.SetBase(snapBase())
}

func TestSharedBaseEqualIsDeltaOnly(t *testing.T) {
	b := funcBase(1000)
	a, c := NewState(), NewState()
	a.SetBase(b)
	c.SetBase(b)
	if !a.Equal(c) {
		t.Fatal("two empty states over one base differ")
	}
	a.Put("k3", []byte("x"), Version{Block: 1})
	if a.Equal(c) {
		t.Fatal("delta write not observed by Equal")
	}
	c.Put("k3", []byte("x"), Version{Block: 9}) // versions excluded from Equal
	if !a.Equal(c) {
		t.Fatal("identical values at different versions must be Equal")
	}
	a.Delete("k7")
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("tombstone not observed by Equal")
	}
	c.Delete("k7")
	if !a.Equal(c) {
		t.Fatal("matching tombstones must be Equal")
	}
}

func TestDifferentBasesEqualBySemantics(t *testing.T) {
	// A snapshot base and a functional base describing the same relation
	// must compare equal, as must a based state and a flat state.
	snap := snapshotBase(map[string][]byte{"k0": []byte("v0"), "k1": []byte("v1")})
	fn := funcBase(2)
	a, b := NewState(), NewState()
	a.SetBase(snap)
	b.SetBase(fn)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equivalent bases compare unequal")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("equivalent bases digest differently")
	}
	b.Put("k1", []byte("other"), Version{Block: 1})
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("divergent value not detected across bases")
	}
}

func TestCloneSharesBaseCopiesDelta(t *testing.T) {
	s := NewState()
	s.SetBase(snapBase())
	s.Put("x", []byte("1"), Version{Block: 1})
	s.Delete("a")
	c := s.Clone()
	if c.Base() != s.Base() {
		t.Fatal("clone must share the immutable base")
	}
	if !c.Equal(s) {
		t.Fatal("clone differs from original")
	}
	// Mutating the clone must not leak into the original.
	c.Put("b", []byte("clone"), Version{Block: 2})
	c.Delete("x")
	if v, _, _ := s.Get("b"); string(v) != "2" {
		t.Fatalf("original b = %q after clone mutation", v)
	}
	if _, _, ok := s.Get("x"); !ok {
		t.Fatal("original lost x after clone deletion")
	}
}

func TestOverlayOverBasedState(t *testing.T) {
	s := NewState()
	s.SetBase(funcBase(10))
	o := NewOverlay(s)
	// Read through overlay to base.
	if v, _, ok := o.Get("k2"); !ok || string(v) != "v2" {
		t.Fatalf("overlay read through base = %q, %v", v, ok)
	}
	o.Put("k2", []byte("spec"), Version{Block: 1})
	o.Delete("k3")
	o.Commit()
	if v, _, _ := s.Get("k2"); string(v) != "spec" {
		t.Fatal("overlay commit lost the write")
	}
	if _, _, ok := s.Get("k3"); ok {
		t.Fatal("overlay commit lost the delete")
	}
	if want := 9; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

func TestApplyWritesOverBase(t *testing.T) {
	s := NewState()
	s.SetBase(snapBase())
	s.Apply([]Write{
		{Key: "a", Val: []byte("10")},
		{Key: "b", Delete: true},
		{Key: "new", Val: []byte("n")},
	}, Version{Block: 3, Tx: 1})
	if v, ver, _ := s.Get("a"); string(v) != "10" || ver.Block != 3 {
		t.Fatalf("a = %q @ %v", v, ver)
	}
	if _, _, ok := s.Get("b"); ok {
		t.Fatal("b survived Apply delete")
	}
	if s.Len() != 3 { // a, c, new
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}
