// Package ledger implements the storage substrate shared by BIDL and the
// baseline frameworks: a versioned key-value world state (Hyperledger
// Fabric-style) layered copy-on-write over a shared immutable base, read-
// write sets with MVCC validation, a speculative overlay used by BIDL's
// Phase 4, and an append-only hash-chained block store.
package ledger

import (
	"bytes"
	"sort"

	"github.com/bidl-framework/bidl/internal/crypto"
)

// Version identifies the transaction that last wrote a key: the HLF-style
// (block, txNum) pair used by MVCC validation.
type Version struct {
	Block uint64
	Tx    int
}

type entry struct {
	val []byte
	ver Version
}

// State is the committed world state: a versioned key-value store.
// It is single-writer by construction (one simulated node owns it).
//
// A State is optionally layered copy-on-write over a shared immutable Base
// (SetBase): reads that miss the private delta fall through to the base,
// writes land in the delta, and deletes of base keys leave tombstones. The
// observable key-value relation — Get, Len, Digest, Equal, Clone — is
// exactly that of a flat state holding base∪delta, so attaching a base is
// behavior-preserving; only the memory cost changes (O(written keys) per
// node instead of O(base keys)).
type State struct {
	data map[string]entry
	base *Base
	// dels tombstones base keys the state has deleted; nil until the first
	// such delete. Keys in data are never simultaneously in dels.
	dels map[string]struct{}
	// size is the live key count: len(data not shadowing base) + base keys
	// neither shadowed nor tombstoned. Maintained incrementally so Len stays
	// O(1) with a functional base.
	size int
}

// NewState returns an empty world state.
func NewState() *State {
	return &State{data: make(map[string]entry)}
}

// SetBase attaches a shared immutable base layer. It must be called on an
// empty state (prepopulation happens before any traffic by lifecycle
// contract); attaching to a non-empty state panics rather than silently
// changing which layer owns existing keys.
func (s *State) SetBase(b *Base) {
	if len(s.data) != 0 || s.size != 0 || s.base != nil {
		panic("ledger: SetBase on a non-empty state")
	}
	s.base = b
	s.size = b.Len()
}

// Base returns the attached base layer, or nil.
func (s *State) Base() *Base { return s.base }

// baseLive reports whether key is visible from the base layer (defined and
// not tombstoned).
func (s *State) baseLive(key string) ([]byte, bool) {
	if s.base == nil {
		return nil, false
	}
	if s.dels != nil {
		if _, dead := s.dels[key]; dead {
			return nil, false
		}
	}
	return s.base.Get(key)
}

// Get returns the value and version for key, with ok=false if absent.
// Base-layer values read at Version{}, the prepopulation version.
func (s *State) Get(key string) (val []byte, ver Version, ok bool) {
	if e, ok := s.data[key]; ok {
		return e.val, e.ver, true
	}
	if v, ok := s.baseLive(key); ok {
		return v, Version{}, true
	}
	return nil, Version{}, false
}

// Put writes key=val at version ver.
func (s *State) Put(key string, val []byte, ver Version) {
	if _, shadowing := s.data[key]; !shadowing {
		if s.base != nil && s.base.Has(key) {
			if s.dels != nil {
				if _, dead := s.dels[key]; dead {
					// Resurrecting a tombstoned base key.
					delete(s.dels, key)
					s.size++
				}
			}
			// Shadowing a live base key leaves the count unchanged.
		} else {
			s.size++
		}
	}
	s.data[key] = entry{val: val, ver: ver}
}

// Delete removes key, tombstoning it when the base layer defines it.
func (s *State) Delete(key string) {
	if _, ok := s.data[key]; ok {
		delete(s.data, key)
		s.size--
		if s.base != nil && s.base.Has(key) {
			if s.dels == nil {
				s.dels = make(map[string]struct{})
			}
			s.dels[key] = struct{}{}
		}
		return
	}
	if _, ok := s.baseLive(key); ok {
		if s.dels == nil {
			s.dels = make(map[string]struct{})
		}
		s.dels[key] = struct{}{}
		s.size--
	}
}

// Len returns the number of live keys.
func (s *State) Len() int { return s.size }

// Apply installs a write set at the given version.
func (s *State) Apply(writes []Write, ver Version) {
	for _, w := range writes {
		if w.Delete {
			s.Delete(w.Key)
		} else {
			s.Put(w.Key, w.Val, ver)
		}
	}
}

// forEachLive calls fn with every live (key, value) pair: the delta plus
// base keys neither shadowed nor tombstoned. Order is unspecified.
func (s *State) forEachLive(fn func(key string, val []byte)) {
	for k, e := range s.data {
		fn(k, e.val)
	}
	if s.base == nil {
		return
	}
	s.base.forEach(func(k string, v []byte) {
		if _, shadowed := s.data[k]; shadowed {
			return
		}
		if s.dels != nil {
			if _, dead := s.dels[k]; dead {
				return
			}
		}
		fn(k, v)
	})
}

// Digest returns a deterministic hash of the entire state (keys sorted).
// Experiments use it to assert that all correct nodes' states never diverge
// (the paper's safety guarantee, §3.1). With a base attached this costs
// O(base keys) — it is an audit, not a hot path.
func (s *State) Digest() crypto.Digest {
	keys := make([]string, 0, s.size)
	vals := make(map[string][]byte, s.size)
	s.forEachLive(func(k string, v []byte) {
		keys = append(keys, k)
		vals[k] = v
	})
	sort.Strings(keys)
	parts := make([][]byte, 0, len(keys)*2)
	for _, k := range keys {
		parts = append(parts, []byte(k), vals[k])
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
	if s.size != o.size {
		return false
	}
	if s.base == o.base {
		// Shared (or both-nil) base: keys in neither delta nor tombstone set
		// resolve identically, so only delta keys need checking — each side's
		// writes and deletes against the other's view.
		return s.deltaMatches(o) && o.deltaMatches(s)
	}
	// Different bases: full scan. size equality plus one-sided containment
	// implies set equality.
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

// deltaMatches checks s's delta writes and tombstones against o's view.
func (s *State) deltaMatches(o *State) bool {
	for k, e := range s.data {
		ov, _, ok := o.Get(k)
		if !ok || !bytes.Equal(e.val, ov) {
			return false
		}
	}
	for k := range s.dels {
		if _, _, ok := o.Get(k); ok {
			return false
		}
	}
	return true
}

// Clone deep-copies the state (delta values are copied; the immutable base
// layer is shared by reference).
func (s *State) Clone() *State {
	c := NewState()
	c.base = s.base
	c.size = s.size
	for k, e := range s.data {
		c.data[k] = entry{val: append([]byte(nil), e.val...), ver: e.ver}
	}
	if s.dels != nil {
		c.dels = make(map[string]struct{}, len(s.dels))
		for k := range s.dels {
			c.dels[k] = struct{}{}
		}
	}
	return c
}
