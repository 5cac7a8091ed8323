package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
)

// Model test for State: seeded random operation sequences run through real
// states — several on one shared Base, one on a Base of its own, one on none —
// and after every operation every read a State offers is compared with a
// reference that is nothing but a map from key to value (and one from key to
// version). The reference is the specification: whatever a State is built
// from, it has to read like a flat map holding base ∪ writes.

// refState is the reference: live keys only.
type refState struct {
	vals map[string][]byte
	vers map[string]Version
}

func newRefState(b *Base) *refState {
	r := &refState{vals: make(map[string][]byte), vers: make(map[string]Version)}
	b.forEach(func(k string, v []byte) { r.vals[k] = v })
	return r
}

func (r *refState) put(k string, v []byte, ver Version) { r.vals[k], r.vers[k] = v, ver }

func (r *refState) del(k string) {
	delete(r.vals, k)
	delete(r.vers, k)
}

func (r *refState) clone() *refState {
	c := &refState{vals: make(map[string][]byte, len(r.vals)), vers: make(map[string]Version, len(r.vers))}
	for k, v := range r.vals {
		c.vals[k] = v
	}
	for k, v := range r.vers {
		c.vers[k] = v
	}
	return c
}

func (r *refState) equal(o *refState) bool {
	if len(r.vals) != len(o.vals) {
		return false
	}
	for k, v := range r.vals {
		if ov, ok := o.vals[k]; !ok || !bytes.Equal(v, ov) {
			return false
		}
	}
	return true
}

// digest is State.Digest's documented value: the hash of every live key and
// its value, keys sorted.
func (r *refState) digest() crypto.Digest {
	keys := make([]string, 0, len(r.vals))
	for k := range r.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		parts = append(parts, []byte(k), r.vals[k])
	}
	return crypto.HashAll(parts...)
}

// modelState is one driven state, its reference, and the keys it may write.
// The first two states share a Base and never write a key the other writes.
type modelState struct {
	name string
	st   *State
	ref  *refState
	keys []string
}

const modelBaseKeys = 48

// stateModelKeys returns the keys a state draws from: base keys lo..hi-1 of
// funcBase, fresh keys under its own prefix, and keys nobody ever writes
// (deleting or reading one must stay a no-op).
func stateModelKeys(prefix string, lo, hi int) (own, all []string) {
	for i := lo; i < hi; i++ {
		own = append(own, fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 24; i++ {
		own = append(own, fmt.Sprintf("%s%d", prefix, i))
	}
	return own, append(append([]string{}, own...), "never-a", "never-b", "k"+fmt.Sprint(modelBaseKeys), "k-1", "k01")
}

func checkStateModel(t *testing.T, what string, states []*modelState, universe []string) {
	t.Helper()
	for _, m := range states {
		if got := m.st.Len(); got != len(m.ref.vals) {
			t.Fatalf("%s: %s.Len() = %d; reference %d", what, m.name, got, len(m.ref.vals))
		}
		reads := make([]Read, 0, len(universe))
		for _, k := range universe {
			val, ver, ok := m.st.Get(k)
			want, wantOK := m.ref.vals[k]
			if ok != wantOK || !bytes.Equal(val, want) || ver != m.ref.vers[k] {
				t.Fatalf("%s: %s.Get(%q) = %q, %v, %t; reference %q, %v, %t",
					what, m.name, k, val, ver, ok, want, m.ref.vers[k], wantOK)
			}
			reads = append(reads, Read{Key: k, Ver: m.ref.vers[k], Existed: wantOK})
		}
		checkValidate(t, what, m, reads)
		if got, want := m.st.Digest(), m.ref.digest(); got != want {
			t.Fatalf("%s: %s.Digest() differs from the reference's", what, m.name)
		}
		seen := 0
		m.st.forEachLive(func(k string, v []byte) {
			seen++
			if want, ok := m.ref.vals[k]; !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: %s.forEachLive yields %q = %q; reference %q, %t", what, m.name, k, v, want, ok)
			}
		})
		if seen != len(m.ref.vals) {
			t.Fatalf("%s: %s.forEachLive yields %d pairs; reference %d", what, m.name, seen, len(m.ref.vals))
		}
	}
	for _, a := range states {
		for _, b := range states {
			if got, want := a.st.Equal(b.st), a.ref.equal(b.ref); got != want {
				t.Fatalf("%s: %s.Equal(%s) = %t; reference %t", what, a.name, b.name, got, want)
			}
		}
	}
}

// checkValidate holds ValidateResolved, by id and by name, to the reference:
// each read of what the reference holds passes, alone and all together, and
// the same read with the key's existence flipped, or a live key's block or
// transaction number changed, fails.
func checkValidate(t *testing.T, what string, m *modelState, reads []Read) {
	t.Helper()
	ids := m.st.ids.Resolve(len(reads), func(i int) string { return reads[i].Key })
	validate := func(rs []Read, i int) (byID, byName bool) {
		return m.st.ValidateResolved(rs, KeyIDs{table: ids.table, ids: ids.ids[i : i+len(rs)]}),
			ValidateMVCC(m.st, &RWSet{Reads: rs})
	}
	if byID, byName := validate(reads, 0); !byID || !byName {
		t.Fatalf("%s: %s fails MVCC validation of its own reads (by id %t, by name %t)", what, m.name, byID, byName)
	}
	for i, rd := range reads {
		if byID, byName := validate([]Read{rd}, i); !byID || !byName {
			t.Fatalf("%s: %s fails MVCC validation of its own read %+v (by id %t, by name %t)", what, m.name, rd, byID, byName)
		}
		stale := []Read{{Key: rd.Key, Ver: rd.Ver, Existed: !rd.Existed}}
		if rd.Existed {
			stale = append(stale,
				Read{Key: rd.Key, Ver: Version{Block: rd.Ver.Block ^ 1, Tx: rd.Ver.Tx}, Existed: true},
				Read{Key: rd.Key, Ver: Version{Block: rd.Ver.Block, Tx: rd.Ver.Tx ^ 1}, Existed: true})
		}
		for _, s := range stale {
			if byID, byName := validate([]Read{s}, i); byID || byName {
				t.Fatalf("%s: %s passes the stale read %+v of %+v (by id %t, by name %t)", what, m.name, s, rd, byID, byName)
			}
		}
	}
}

// modelVersion draws a version from the edges of the range a key's version
// takes, block 0, 1 and 2^32-1 and transaction 0, 499 and 2^30-1, or an
// ordinary one.
func modelVersion(rng *rand.Rand, op int) Version {
	blocks := []uint64{0, 1, 1<<32 - 1, uint64(op)}
	txs := []int{0, 499, 1<<30 - 1, rng.Intn(8)}
	return Version{Block: blocks[rng.Intn(len(blocks))], Tx: txs[rng.Intn(len(txs))]}
}

func TestStateModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shared, other := funcBase(modelBaseKeys), funcBase(modelBaseKeys)
		// a and b share a Base and write disjoint keys; c is on an equal Base
		// of its own and d on none, both writing a's keys, so Equal is also
		// driven across bases; e starts as a clone and is replaced by clones.
		aKeys, aAll := stateModelKeys("f", 0, modelBaseKeys/2)
		bKeys, bAll := stateModelKeys("g", modelBaseKeys/2, modelBaseKeys)
		states := []*modelState{
			{name: "a", st: NewState(), ref: newRefState(shared), keys: aKeys},
			{name: "b", st: NewState(), ref: newRefState(shared), keys: bKeys},
			{name: "c", st: NewState(), ref: newRefState(other), keys: aKeys},
			{name: "d", st: NewState(), ref: newRefState(nil), keys: aKeys},
		}
		states[0].st.SetBase(shared)
		states[1].st.SetBase(shared)
		states[2].st.SetBase(other)
		states = append(states, &modelState{name: "e", st: states[0].st.Clone(), ref: states[0].ref.clone(), keys: aKeys})
		universe := append(aAll, bAll...)

		val := func() []byte {
			switch rng.Intn(8) {
			case 0:
				return []byte("v1") // a base value, so a write can equal what it shadows
			case 1:
				return nil // a value all the same: it must not read as absent
			}
			return []byte(fmt.Sprintf("w%d", rng.Intn(4)))
		}
		checkStateModel(t, fmt.Sprintf("seed %d start", seed), states, universe)
		for op := 0; op < 1000; op++ {
			m := states[rng.Intn(len(states))]
			all := aAll
			if m.name == "b" {
				all = bAll
			}
			ver := modelVersion(rng, op)
			var what string
			switch k := rng.Intn(21); {
			case k < 7:
				key, v := m.keys[rng.Intn(len(m.keys))], val()
				m.st.Put(key, v, ver)
				m.ref.put(key, v, ver)
				what = fmt.Sprintf("%s.Put(%q, %q)", m.name, key, v)
			case k < 11:
				key := all[rng.Intn(len(all))] // incl. keys never written
				m.st.Delete(key)
				m.ref.del(key)
				what = fmt.Sprintf("%s.Delete(%q)", m.name, key)
			case k < 13: // delete, then resurrect, one key
				key, v := m.keys[rng.Intn(len(m.keys))], val()
				m.st.Delete(key)
				m.st.Put(key, v, ver)
				m.ref.put(key, v, ver)
				what = fmt.Sprintf("%s.Delete+Put(%q, %q)", m.name, key, v)
			case k < 18:
				var ws []Write
				for i := 1 + rng.Intn(5); i > 0; i-- {
					w := Write{Key: m.keys[rng.Intn(len(m.keys))]}
					if rng.Intn(4) == 0 {
						w.Key, w.Delete = all[rng.Intn(len(all))], true
						m.ref.del(w.Key)
					} else {
						w.Val = val()
						m.ref.put(w.Key, w.Val, ver)
					}
					ws = append(ws, w)
				}
				m.st.Apply(ws, ver)
				what = fmt.Sprintf("%s.Apply(%d writes)", m.name, len(ws))
			case k < 19: // stage writes in an overlay, read through it, commit it
				ov, staged := NewOverlay(m.st), m.ref.clone()
				for i := 1 + rng.Intn(6); i > 0; i-- {
					if rng.Intn(3) == 0 {
						key := all[rng.Intn(len(all))]
						ov.Delete(key)
						staged.del(key)
					} else {
						key, v, ver := m.keys[rng.Intn(len(m.keys))], val(), modelVersion(rng, op)
						ov.Put(key, v, ver)
						staged.put(key, v, ver)
					}
				}
				for _, k := range all {
					got, ver, ok := ov.Get(k)
					want, wantOK := staged.vals[k]
					if ok != wantOK || !bytes.Equal(got, want) || ver != staged.vers[k] {
						t.Fatalf("seed %d op %d: %s overlay Get(%q) = %q, %v, %t; reference %q, %v, %t",
							seed, op, m.name, k, got, ver, ok, want, staged.vers[k], wantOK)
					}
				}
				ov.Commit()
				m.ref = staged
				what = fmt.Sprintf("%s overlay commit", m.name)
			default: // e becomes a deep copy of a state that writes a's keys
				src := states[[]int{0, 2, 3, 4}[rng.Intn(4)]]
				e := states[4]
				e.st, e.ref = src.st.Clone(), src.ref.clone()
				what = fmt.Sprintf("e = %s.Clone()", src.name)
			}
			checkStateModel(t, fmt.Sprintf("seed %d op %d %s", seed, op, what), states, universe)
		}
	}
}

// A clone owns its values: writing through the source's byte slices, or to
// the source, after the copy leaves the clone as it was.
func TestStateModelCloneIsDeep(t *testing.T) {
	src := NewState()
	src.SetBase(funcBase(4))
	buf := []byte("mutable")
	src.Put("k1", buf, Version{Block: 1})
	src.Put("x", []byte("x0"), Version{Block: 1})
	src.Delete("k2")
	c := src.Clone()
	buf[0] = 'M'
	src.Put("x", []byte("x1"), Version{Block: 2})
	src.Put("k2", []byte("back"), Version{Block: 2})
	for key, want := range map[string]string{"k1": "mutable", "x": "x0", "k0": "v0", "k3": "v3"} {
		if got, _, ok := c.Get(key); !ok || string(got) != want {
			t.Fatalf("clone[%s] = %q, %t; want %q", key, got, ok, want)
		}
	}
	if _, _, ok := c.Get("k2"); ok || c.Len() != 4 {
		t.Fatalf("clone sees the source's later resurrection of k2 (Len %d)", c.Len())
	}
}

// A value written at the prepopulation version, even an empty one, is a
// value: it reads, validates, counts, compares, clones and commits through an
// overlay as present, where a key never written reads as absent.
func TestStateModelValueAtZeroVersion(t *testing.T) {
	st := NewState()
	st.SetBase(funcBase(4))
	st.Put("x", nil, Version{})
	st.Delete("k1") // a tombstone over a base key
	ov := NewOverlay(st)
	ov.Put("y", nil, Version{})
	ov.Delete("k2")
	ov.Commit()
	for _, s := range []*State{st, st.Clone()} {
		for _, key := range []string{"x", "y"} {
			if val, ver, ok := s.Get(key); !ok || val != nil || ver != (Version{}) {
				t.Fatalf("Get(%q) = %q, %v, %t; want nil, Version{}, true", key, val, ver, ok)
			}
			if ValidateMVCC(s, &RWSet{Reads: []Read{{Key: key}}}) || !ValidateMVCC(s, &RWSet{Reads: []Read{{Key: key, Existed: true}}}) {
				t.Fatalf("%q validates as absent", key)
			}
		}
		for _, key := range []string{"k1", "k2", "never"} {
			if _, _, ok := s.Get(key); ok || !ValidateMVCC(s, &RWSet{Reads: []Read{{Key: key}}}) {
				t.Fatalf("%q reads or validates as present", key)
			}
		}
		if s.Len() != 4 {
			t.Fatalf("Len %d; want 4 (k0, k3, x, y)", s.Len())
		}
	}
	without := NewState()
	without.SetBase(funcBase(4))
	without.Apply([]Write{{Key: "k1", Delete: true}, {Key: "k2", Delete: true}, {Key: "x"}}, Version{})
	if st.Equal(without) || without.Equal(st) || st.Digest() == without.Digest() {
		t.Fatal("a state without the empty value at y equals one with it")
	}
}
