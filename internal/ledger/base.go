package ledger

// Base is an immutable, shareable bottom layer for State: the copy-on-write
// substrate that makes million-account prepopulation O(1) per node. Every
// replica of a cluster points at the same Base; reads that miss the node's
// private delta fall through to it, and writes (including deletes, via
// tombstones) only ever touch the delta. A Base must never be mutated after
// it is attached to a State — all constructors seal it by construction.
//
// A base describes its keyspace as a pure function — count, enumerator,
// lookup (NewFuncBase) — and costs O(1) memory total, which is what lets a
// 10⁷-account workload run in near-constant space.
//
// Base entries carry Version{} (the prepopulation version), exactly like the
// eager Prepopulate writes they replace, so MVCC validation observes
// identical read versions either way.
type Base struct {
	// n keys enumerated by keyAt, resolved by lookup. lookup must return
	// (value, true) exactly for the n keys keyAt yields and (nil, false) for
	// every other string, and both must be pure.
	n      int
	keyAt  func(i int) string
	lookup func(key string) ([]byte, bool)
}

// NewFuncBase builds a function-defined base over exactly n keys: keyAt
// enumerates them (0 <= i < n, duplicates forbidden) and lookup resolves any
// string to (value, ok). Both must be pure functions — the base is consulted
// concurrently by every node sharing it.
func NewFuncBase(n int, keyAt func(i int) string, lookup func(key string) ([]byte, bool)) *Base {
	if n < 0 {
		n = 0
	}
	return &Base{n: n, keyAt: keyAt, lookup: lookup}
}

// Get resolves key against the base.
func (b *Base) Get(key string) ([]byte, bool) {
	if b == nil || b.lookup == nil {
		return nil, false
	}
	return b.lookup(key)
}

// Has reports whether the base defines key.
func (b *Base) Has(key string) bool {
	_, ok := b.Get(key)
	return ok
}

// Len returns the number of keys the base defines.
func (b *Base) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// forEach calls fn with every (key, value) pair the base defines.
// Enumeration order is unspecified; callers needing determinism sort.
func (b *Base) forEach(fn func(key string, val []byte)) {
	if b == nil {
		return
	}
	for i := 0; i < b.n; i++ {
		k := b.keyAt(i)
		v, ok := b.lookup(k)
		if !ok {
			panic("ledger: functional base keyAt yields a key its lookup rejects: " + k)
		}
		fn(k, v)
	}
}
