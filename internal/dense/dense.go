// Package dense replaces per-node hash maps by arrays: a Table gives each
// name a small consecutive id once for everybody who shares it, and Pages
// holds one owner's records by id. The function name → id is the only thing
// shared; what a node keeps under an id stays its own (DESIGN.md §7.1).
package dense

import "sync"

// Table interns names: a name's first Intern assigns it the next id, so ids
// are dense and cost only the names in use. It only grows, and is safe for
// concurrent use. Ids follow whoever interned first: nothing observable may
// be ordered by them.
type Table[K comparable] struct {
	mu    sync.RWMutex
	ids   map[K]uint32
	names []K
}

// NewTable returns an empty table.
func NewTable[K comparable]() *Table[K] {
	return &Table[K]{ids: make(map[K]uint32)}
}

// Lookup returns name's id, if it was ever interned.
func (t *Table[K]) Lookup(name K) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	return id, ok
}

// Intern returns name's id, assigning the next one to a new name.
func (t *Table[K]) Intern(name K) uint32 {
	if id, ok := t.Lookup(name); ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[name]
	if !ok {
		id = uint32(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	return id
}

// Names returns the names interned so far, indexed by id. The slice is a
// snapshot the caller must not write to; later names are not in it.
func (t *Table[K]) Names() []K {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[:len(t.names):len(t.names)]
}

// Ordinals memoises the ids of a shared message's names in one table: the
// sender resolves them once (Resolve) and every receiver on that table reads
// them. A receiver on another table, or of a message nobody resolved, gets
// the same id by name; the memo is never written once the message is shared.
type Ordinals[K comparable] struct {
	table *Table[K]
	ids   []uint32
}

// Resolve interns len(ids) names in t, name(i) being the i-th, into ids,
// which the memo keeps: the caller chooses where the ids live.
func (o *Ordinals[K]) Resolve(t *Table[K], ids []uint32, name func(i int) K) {
	o.table, o.ids = t, ids
	for i := range ids {
		ids[i] = t.Intern(name(i))
	}
}

// Intern returns the id in t of the i-th name, which is name, adding it to t
// if new: for a caller that records the name (pools a payload, marks a hash).
func (o *Ordinals[K]) Intern(t *Table[K], i int, name K) uint32 {
	if o.table == t {
		return o.ids[i]
	}
	return t.Intern(name)
}

// Lookup returns the id in t of the i-th name, which is name, if t has one,
// never adding it: for a caller that only reads (tallies an echo).
func (o *Ordinals[K]) Lookup(t *Table[K], i int, name K) (uint32, bool) {
	if o.table == t {
		return o.ids[i], true
	}
	return t.Lookup(name)
}

// Pages are PageSize consecutive ids each: small enough that an owner who
// touches a handful of ids pays for a handful, fixed so that a pointer into
// one stays good for the owner's life.
const (
	pageBits = 6
	PageSize = 1 << pageBits
)

// Pages is one owner's array of T by id; the zero value is empty, a missing
// page reads as nil, and the zero T is what an id never stored at holds. Not
// for concurrent use.
type Pages[T any] []*[PageSize]T

// Get returns the record at id, or nil when its page was never stored to.
func (p Pages[T]) Get(id uint32) *T {
	if i := int(id >> pageBits); i < len(p) && p[i] != nil {
		return &p[i][id%PageSize]
	}
	return nil
}

// At returns the record at id, adding its page if missing.
func (p *Pages[T]) At(id uint32) *T {
	i := int(id >> pageBits)
	for len(*p) <= i {
		*p = append(*p, nil)
	}
	if (*p)[i] == nil {
		(*p)[i] = new([PageSize]T)
	}
	return &(*p)[i][id%PageSize]
}
