// Package ledger implements the storage substrate shared by BIDL and the
// baseline frameworks: a versioned key-value world state (Hyperledger
// Fabric-style) layered copy-on-write over a shared immutable base, read-
// write sets with MVCC validation, a speculative overlay used by BIDL's
// Phase 4, and an append-only hash-chained block store.
package ledger

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
)

// Version identifies the transaction that last wrote a key: the HLF-style
// (block, txNum) pair used by MVCC validation.
type Version struct {
	Block uint64
	Tx    int
}

// entry is what a state's delta holds for one key id: the value, and its
// version and kind packed into one word (packed). The zero entry says the
// state never wrote the key: it reads through to the base.
type entry struct {
	val []byte
	v   uint64
}

const (
	absent    uint64 = iota // never written here
	value                   // written: val at ver
	tombstone               // deleted here, whatever the base says
)

// packed returns ver and kind as an entry's word: Block in the high 32 bits,
// Tx in the next 30, kind in the low 2. Blocks commit in order from height 0
// and no block holds 2^30 transactions, so no run leaves the range.
func packed(ver Version, kind uint64) uint64 {
	if ver.Block >= 1<<32 || ver.Tx < 0 || ver.Tx >= 1<<30 {
		panic(fmt.Sprintf("ledger: version %+v outside the packed range (Block < 2^32, 0 <= Tx < 2^30)", ver))
	}
	return ver.Block<<32 | uint64(ver.Tx)<<2 | kind
}

func (e *entry) kind() uint64 { return e.v & 3 }

func (e *entry) ver() Version { return Version{Block: e.v >> 32, Tx: int(e.v >> 2 & (1<<30 - 1))} }

// State is the committed world state: a versioned key-value store.
// It is single-writer by construction (one simulated node owns it).
//
// A State is either a state of its own or a view of a Shared state at the
// view's height: it then reads what a state of its own that committed the
// same blocks reads, and goes on alone (Leave) once written to outside the
// blocks it writes for the views (Begin).
//
// A State is optionally layered copy-on-write over a shared immutable Base
// (SetBase): reads that miss the private delta fall through to the base,
// writes land in the delta, and deletes leave tombstones. The
// observable key-value relation — Get, Len, Digest, Equal, Clone — is
// exactly that of a flat state holding base∪delta, so attaching a base is
// behavior-preserving; only the memory cost changes (O(written keys) per
// node instead of O(base keys)).
//
// The delta is an array, not a map: keys gives every key some state sharing
// it ever wrote an id (one table per deployment: NewStateOn) and delta holds
// this state's value and packed version and kind under that id.
type State struct {
	keys  *dense.Table[string]
	delta dense.Pages[entry]
	base  *Base
	// size is the live key count: values not shadowing the base + base keys
	// neither shadowed nor tombstoned. Maintained incrementally so Len stays
	// O(1) with a functional base.
	size int
	// ids resolves write sets in keys (Resolve).
	ids Resolver
	// sh is the shared state a view reads at height h, the blocks it
	// committed; nil for a state of its own. undo is set on a shared state's
	// head alone: its writes save what they overwrite for the views below.
	sh   *Shared
	h    uint64
	undo *Shared
}

// NewState returns an empty world state with a key table of its own.
func NewState() *State { return NewStateOn(dense.NewTable[string]()) }

// NewStateOn returns an empty world state that names its keys in keys. The
// replicas of one deployment share a table: a key is then named once, not
// once per node, Equal between two of them compares arrays, and a write set
// resolved by one (Resolve) applies on all by index.
func NewStateOn(keys *dense.Table[string]) *State {
	return &State{keys: keys, ids: Resolver{table: keys}}
}

// SetBase attaches a shared immutable base layer. It must be called on an
// empty state (prepopulation happens before any traffic by lifecycle
// contract); attaching to a non-empty state panics rather than silently
// changing which layer owns existing keys.
func (s *State) SetBase(b *Base) {
	if s.sh != nil && s.sh.attach(s, b) {
		return
	}
	s.Leave()
	if len(s.delta) != 0 || s.size != 0 || s.base != nil {
		panic("ledger: SetBase on a non-empty state")
	}
	s.base = b
	s.size = b.Len()
}

// Base returns the attached base layer, or nil.
func (s *State) Base() *Base { return s.base }

// written returns key's delta entry if the state wrote or deleted key.
func (s *State) written(key string) *entry {
	if id, ok := s.keys.Lookup(key); ok {
		return s.writtenAt(id)
	}
	return nil
}

// writtenAt is written for a caller that holds the key's id.
func (s *State) writtenAt(id uint32) *entry {
	if s.sh != nil {
		return s.sh.written(id, s.top())
	}
	if e := s.delta.Get(id); e != nil && e.kind() != absent {
		return e
	}
	return nil
}

// pages is the delta s reads: its own, or its shared state's head.
func (s *State) pages() dense.Pages[entry] {
	if s.sh != nil {
		return s.sh.head.delta
	}
	return s.delta
}

// at returns what s reads at id, given id's entry in pages: a view rolls an
// entry written above its height back to what it held there.
func (s *State) at(id uint32, e *entry) *entry {
	if s.sh != nil {
		return s.sh.rollback(id, e, s.top())
	}
	return e
}

// Get returns the value and version for key, with ok=false if absent.
// Base-layer values read at Version{}, the prepopulation version.
func (s *State) Get(key string) (val []byte, ver Version, ok bool) {
	if e := s.written(key); e != nil {
		if e.kind() == tombstone {
			return nil, Version{}, false
		}
		return e.val, e.ver(), true
	}
	if v, ok := s.base.Get(key); ok {
		return v, Version{}, true
	}
	return nil, Version{}, false
}

// Put writes key=val at version ver.
func (s *State) Put(key string, val []byte, ver Version) {
	t := s.target(ver)
	t.put(t.keys.Intern(key), key, val, ver)
}

// target is the state s's writes at ver land in: its shared state's head
// while s writes its next block, else s, which a view leaves first: a view
// written to directly goes on alone.
func (s *State) target(ver Version) *State {
	if sh := s.sh; sh != nil {
		if sh.writer == s {
			if ver.Block != sh.h {
				panic(fmt.Sprintf("ledger: a write at block %d into shared block %d", ver.Block, sh.h))
			}
			return sh.head
		}
		s.Leave()
	}
	return s
}

// put is Put for a caller that holds key's id. The base is asked about a key
// once, when the state first touches it.
func (s *State) put(id uint32, key string, val []byte, ver Version) {
	v := packed(ver, value)
	e := s.delta.At(id)
	if k := e.kind(); k == tombstone || (k == absent && !s.base.Has(key)) {
		s.size++ // else: overwriting, or shadowing a live base key
	}
	if s.undo != nil {
		s.undo.save(id, e)
	}
	*e = entry{val: val, v: v}
}

// Delete removes key, leaving a tombstone (dated to the view's next block in
// a view writing it, so a view below still reads what the key held).
func (s *State) Delete(key string) {
	ver := Version{Block: s.h}
	t := s.target(ver)
	t.del(t.keys.Intern(key), key, ver)
}

// del is Delete for a caller that holds key's id, the tombstone dated ver.
// Like put it asks the base only about a key the state has not touched.
func (s *State) del(id uint32, key string, ver Version) {
	e := s.delta.Get(id)
	if e == nil || e.kind() == absent {
		if !s.base.Has(key) {
			return
		}
		e = s.delta.At(id)
	} else if e.kind() == tombstone {
		return
	}
	if s.undo != nil {
		s.undo.save(id, e)
	}
	*e = entry{v: packed(ver, tombstone)}
	s.size--
}

// Len returns the number of live keys.
func (s *State) Len() int {
	if s.sh != nil && s.base == s.sh.head.base {
		return s.sh.sizeAt(s.top())
	}
	return s.size
}

// Apply installs a write set at the given version.
func (s *State) Apply(writes []Write, ver Version) { s.ApplyResolved(writes, KeyIDs{}, ver) }

// KeyIDs is a write set's keys resolved once for every state that shares a
// key table: ids[i] is writes[i].Key's id in table. A pure function of the
// keys and the table, so whoever resolves it, a receiver reads what it would
// have computed (DESIGN.md §7.1).
type KeyIDs struct {
	table *dense.Table[string]
	ids   []uint32
}

// Resolver resolves key sets in one key table, for a holder of that table
// that may hold no state at all (an orderer). It cuts the id slices from a
// chunk of its own, so resolving costs no allocation per key set.
type Resolver struct {
	table *dense.Table[string]
	chunk []uint32
}

// NewResolver returns a resolver over table.
func NewResolver(table *dense.Table[string]) *Resolver { return &Resolver{table: table} }

// Resolve returns the ids of n keys, key(i) being the i-th, interning new
// ones.
func (r *Resolver) Resolve(n int, key func(i int) string) KeyIDs {
	if len(r.chunk) < n {
		r.chunk = make([]uint32, max(n, 1024))
	}
	ids := r.chunk[:n:n]
	r.chunk = r.chunk[n:]
	for i := range ids {
		ids[i] = r.table.Intern(key(i))
	}
	return KeyIDs{table: r.table, ids: ids}
}

// Resolve returns the ids of writes' keys in s's key table.
func (s *State) Resolve(writes []Write) KeyIDs {
	return s.ids.Resolve(len(writes), func(i int) string { return writes[i].Key })
}

// ApplyResolved is Apply for a write set that carries its keys' ids: an
// array index per write, no lock and no hash. Ids resolved in another table
// (another deployment's, or none at all) are ignored and the keys go by name.
func (s *State) ApplyResolved(writes []Write, r KeyIDs, ver Version) {
	t := s.target(ver)
	byID := r.table == t.keys && len(r.ids) == len(writes)
	for i, w := range writes {
		var id uint32
		if byID {
			id = r.ids[i]
		} else {
			id = t.keys.Intern(w.Key)
		}
		if w.Delete {
			t.del(id, w.Key, ver)
		} else {
			t.put(id, w.Key, w.Val, ver)
		}
	}
}

// ValidateResolved is ValidateMVCC for a read set that carries its keys' ids:
// an array index per read. Like ApplyResolved it ignores ids resolved in
// another table and goes by name.
func (s *State) ValidateResolved(reads []Read, r KeyIDs) bool {
	byID := r.table == s.keys && len(r.ids) == len(reads)
	for i, rd := range reads {
		var e *entry
		if byID {
			e = s.writtenAt(r.ids[i])
		} else {
			e = s.written(rd.Key)
		}
		ver, ok := Version{}, false
		if e != nil {
			ver, ok = e.ver(), e.kind() == value
		} else {
			ok = s.base.Has(rd.Key)
		}
		if ok != rd.Existed || (ok && ver != rd.Ver) {
			return false
		}
	}
	return true
}

// forEachLive calls fn with every live (key, value) pair: the delta plus
// base keys neither shadowed nor tombstoned. Order is unspecified.
func (s *State) forEachLive(fn func(key string, val []byte)) {
	names := s.keys.Names()
	for i, pg := range s.pages() {
		if pg == nil {
			continue
		}
		for j := range pg {
			if e := s.at(uint32(i*dense.PageSize+j), &pg[j]); e.kind() == value {
				fn(names[i*dense.PageSize+j], e.val)
			}
		}
	}
	s.base.forEach(func(k string, v []byte) {
		if s.written(k) == nil {
			fn(k, v)
		}
	})
}

// Digest returns a deterministic hash of the entire state (keys sorted).
// Experiments use it to assert that all correct nodes' states never diverge
// (the paper's safety guarantee, §3.1). With a base attached this costs
// O(base keys) — it is an audit, not a hot path.
func (s *State) Digest() crypto.Digest {
	type pair struct {
		key string
		val []byte
	}
	live := make([]pair, 0, s.Len())
	s.forEachLive(func(k string, v []byte) { live = append(live, pair{k, v}) })
	sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
	parts := make([][]byte, 0, len(live)*2)
	for _, p := range live {
		parts = append(parts, []byte(p.key), p.val)
	}
	return crypto.HashAll(parts...)
}

// Equal reports whether two states hold identical live key-value pairs —
// the same relation Digest-comparison checks, without the per-state key sort
// and hashing. Safety checks over many peers use this; versions are excluded
// exactly as they are from Digest. When both states share one base (the
// cluster-wide prepopulation layer) the comparison touches only the deltas,
// so a consistency audit stays O(written keys) at any account scale.
func (s *State) Equal(o *State) bool {
	if s.sh != nil && s.sh == o.sh && s.top() == o.top() && s.base == o.base {
		return true // one state read at one height
	}
	if s.Len() != o.Len() {
		return false
	}
	if s.base == o.base && s.keys == o.keys {
		return s.deltaEqual(o)
	}
	// Different bases or key tables: full scan. size equality plus one-sided
	// containment implies set equality.
	equal := true
	s.forEachLive(func(k string, v []byte) {
		if !equal {
			return
		}
		ov, _, ok := o.Get(k)
		if !ok || !bytes.Equal(v, ov) {
			equal = false
		}
	})
	return equal
}

// unwritten stands in for a page a state never stored to.
var unwritten [dense.PageSize]entry

// deltaEqual compares two states over one base and one key table position by
// position: an id means the same key on both sides, and a key neither side
// wrote resolves identically. Where the entries differ (one side may have
// written what the other reads from the base) the key's two readings decide.
func (s *State) deltaEqual(o *State) bool {
	var names []string
	sp, op := s.pages(), o.pages()
	for i := 0; i < len(sp) || i < len(op); i++ {
		a, b := &unwritten, &unwritten
		if i < len(sp) && sp[i] != nil {
			a = sp[i]
		}
		if i < len(op) && op[i] != nil {
			b = op[i]
		}
		if a == &unwritten && b == &unwritten {
			continue
		}
		for j := range a {
			id := uint32(i*dense.PageSize + j)
			x, y := s.at(id, &a[j]), o.at(id, &b[j])
			if x.kind() == y.kind() && bytes.Equal(x.val, y.val) {
				continue
			}
			if names == nil {
				names = s.keys.Names()
			}
			key := names[i*dense.PageSize+j]
			xv, xok := s.read(x, key)
			yv, yok := o.read(y, key)
			if xok != yok || !bytes.Equal(xv, yv) {
				return false
			}
		}
	}
	return true
}

// read returns what key reads as, given its delta entry.
func (s *State) read(e *entry, key string) ([]byte, bool) {
	if e.kind() == absent {
		return s.base.Get(key)
	}
	return e.val, e.kind() == value
}

// Clone deep-copies the state (delta values are copied; the immutable base
// layer and the key table are shared by reference). A view's clone is a state
// of its own at the view's height.
func (s *State) Clone() *State {
	if s.sh != nil {
		s = s.sh.materialize(s)
	}
	c := NewStateOn(s.keys)
	c.base, c.size, c.delta = s.base, s.size, make(dense.Pages[entry], len(s.delta))
	for i, pg := range s.delta {
		if pg == nil {
			continue
		}
		cp := *pg
		for j := range cp {
			cp[j].val = append([]byte(nil), cp[j].val...)
		}
		c.delta[i] = &cp
	}
	return c
}
