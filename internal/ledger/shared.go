package ledger

import (
	"cmp"
	"slices"

	"github.com/bidl-framework/bidl/internal/dense"
)

// Shared is one committed world state that several views read, each at its
// own height (DESIGN.md §7.1): the replicas of a cluster that commit the same
// blocks hold it once. head is the state after every block written so far,
// one entry per written key over the shared Base; for each block above the
// slowest view, blocks keeps what the block overwrote, so a view below the
// head rolls an entry back to what it held at the view's height (a tombstone
// keeps its version, which dates the deletion). The first view to reach a
// block writes it (Begin, its writes, Advance) and, until Advance, reads the
// head, its own writes included; a view that committed the same block only
// advances; one that commits anything else leaves (Leave), as does one that
// trails the head by more than maxViewLag blocks: it goes on as a state of its
// own at its height. Views join before the first block.
//
// Like State it is for one event loop: nothing in it is locked.
type Shared struct {
	head *State
	// h is the number of blocks written; writer is the view writing block h,
	// nil while none is.
	h      uint64
	writer *State
	// blocks[i] is block low+i's undo record (the open block's last); low is
	// the slowest view's height, atLow how many views are there.
	blocks []undoBlock
	low    uint64
	atLow  int
	views  []*State
	spare  [][]undoRec
	maxLag uint64 // maxViewLag, smaller in tests
}

// maxViewLag is how many blocks a view may trail the head before it goes on
// alone (a node down or cut off for long).
const maxViewLag = 64

// maxSpare bounds the undo buffers a shared state keeps for reuse.
const maxSpare = 4

// undoBlock is what one block changed: the live key count before it, and each
// key's entry as it stood before the block's first write to it, sorted by id
// once the block is written.
type undoBlock struct {
	size int
	recs []undoRec
}

type undoRec struct {
	id   uint32
	prev entry
}

// NewShared returns an empty shared state naming its keys in keys.
func NewShared(keys *dense.Table[string]) *Shared {
	sh := &Shared{head: NewStateOn(keys), maxLag: maxViewLag}
	sh.head.undo = sh
	return sh
}

// View returns a new view at height 0. It panics once a block was written.
func (sh *Shared) View() *State {
	if sh.h != 0 || sh.writer != nil {
		panic("ledger: a view joins a shared state after its first block")
	}
	v := NewStateOn(sh.head.keys)
	v.sh = sh
	sh.views = append(sh.views, v)
	sh.atLow++
	return v
}

// top is the height s reads at: its own, or the head's while it writes the
// head's open block.
func (s *State) top() uint64 {
	if s.sh.writer == s {
		return s.h + 1
	}
	return s.h
}

// Low is the slowest view's height: blocks below it are in no view's past
// (with no view left, none is).
func (sh *Shared) Low() uint64 { return sh.low }

// attach gives view v the base b, if it can share it: before the first block,
// when the head has no base or that one.
func (sh *Shared) attach(v *State, b *Base) bool {
	if sh.h != 0 || sh.writer != nil || v.base != nil || (sh.head.base != nil && sh.head.base != b) {
		return false
	}
	if sh.head.base == nil {
		sh.head.SetBase(b)
	}
	v.base = b
	return true
}

// Sharing reports whether s is a view of a shared state.
func (s *State) Sharing() bool { return s.sh != nil }

// Leads reports whether s is a view at its shared state's head: nobody wrote
// its next block yet.
func (s *State) Leads() bool { return s.sh != nil && s.h == s.sh.h }

// Begin opens s's next block: until Advance, s's writes, which must be at that
// block's versions, land in the shared state, and s reads the head, its writes
// to the block included; every other view still reads below it. s must lead.
// A view whose base is not the head's (one that missed SetBase) leaves first,
// s too: its writes are then its own.
func (s *State) Begin() {
	sh := s.sh
	if !s.Leads() || sh.writer != nil {
		panic("ledger: Begin on a view that does not lead")
	}
	base := sh.head.base
	for _, v := range slices.Clone(sh.views) {
		if v.base != base {
			v.Leave()
		}
	}
	if s.sh == nil {
		return
	}
	var recs []undoRec
	if k := len(sh.spare); k > 0 {
		recs, sh.spare = sh.spare[k-1], sh.spare[:k-1]
	}
	sh.blocks = append(sh.blocks, undoBlock{size: sh.head.size, recs: recs})
	sh.writer = s
}

// Advance moves view s one block up: past the block it wrote since Begin, or
// past the next block another view wrote. A state of its own has no height.
func (s *State) Advance() {
	sh := s.sh
	if sh == nil {
		return
	}
	wrote := sh.writer == s
	if wrote {
		b := &sh.blocks[len(sh.blocks)-1]
		slices.SortFunc(b.recs, func(x, y undoRec) int { return cmp.Compare(x.id, y.id) })
		sh.writer = nil
		sh.h++
	} else if s.h >= sh.h {
		panic("ledger: Advance past the head")
	}
	s.h++
	if s.h-1 == sh.low {
		if sh.atLow--; sh.atLow == 0 {
			sh.rescan()
		}
	}
	for wrote && len(sh.views) > 0 && sh.h-sh.low > sh.maxLag {
		low := sh.low // each Leave rescans it
		for _, v := range slices.Clone(sh.views) {
			if v.h == low {
				v.Leave()
			}
		}
	}
}

// Leave makes view s a state of its own at its height; it never shares again.
// A state of its own is left as it is.
func (s *State) Leave() {
	sh := s.sh
	if sh == nil {
		return
	}
	if sh.writer == s {
		panic("ledger: a view leaves the block it writes")
	}
	own := sh.materialize(s)
	s.delta, s.size, s.sh = own.delta, own.size, nil
	sh.views = slices.DeleteFunc(sh.views, func(v *State) bool { return v == s })
	sh.rescan()
}

// save records e, id's entry, before the open block's first write to it.
func (sh *Shared) save(id uint32, e *entry) {
	if e.kind() != absent && e.v>>32 == sh.h {
		return // written earlier in the block: saved then
	}
	b := &sh.blocks[len(sh.blocks)-1]
	b.recs = append(b.recs, undoRec{id: id, prev: *e})
}

// written is State.writtenAt for a view at height h.
func (sh *Shared) written(id uint32, h uint64) *entry {
	if e := sh.head.delta.Get(id); e != nil {
		if e = sh.rollback(id, e, h); e.kind() != absent {
			return e
		}
	}
	return nil
}

// rollback returns what a view at height h reads at id, given id's entry e in
// the head: e, or the entry e overwrote, as often as it was written at or
// above h.
func (sh *Shared) rollback(id uint32, e *entry, h uint64) *entry {
	for e.kind() != absent && e.v>>32 >= h {
		b := e.v >> 32
		recs := sh.blocks[b-sh.low].recs
		var i int
		if b == sh.h { // the open block's records are not sorted yet
			i = slices.IndexFunc(recs, func(r undoRec) bool { return r.id == id })
		} else {
			i, _ = slices.BinarySearchFunc(recs, id, func(r undoRec, id uint32) int { return cmp.Compare(r.id, id) })
		}
		e = &recs[i].prev
	}
	return e
}

// sizeAt is the live key count at height h (h-1's writer reads at h, the
// head).
func (sh *Shared) sizeAt(h uint64) int {
	if h > sh.h || (h == sh.h && sh.writer == nil) {
		return sh.head.size
	}
	return sh.blocks[h-sh.low].size
}

// materialize returns a state of its own holding what view v reads.
func (sh *Shared) materialize(v *State) *State {
	own := NewStateOn(v.keys)
	own.base, own.size = v.base, v.Len()
	if v.base != sh.head.base {
		return own // nothing was written: the view reads its base alone
	}
	own.delta = make(dense.Pages[entry], len(sh.head.delta))
	for i, pg := range sh.head.delta {
		if pg != nil {
			cp := *pg
			own.delta[i] = &cp
		}
	}
	for i := len(sh.blocks) - 1; i >= int(v.top()-sh.low); i-- {
		for _, r := range sh.blocks[i].recs {
			*own.delta.At(r.id) = r.prev
		}
	}
	return own
}

// rescan finds the slowest view and drops the undo records below it; with no
// view left it drops everything.
func (sh *Shared) rescan() {
	if len(sh.views) == 0 {
		sh.head, sh.blocks, sh.spare, sh.low = nil, nil, nil, ^uint64(0)
		return
	}
	low := sh.views[0].h
	for _, v := range sh.views {
		low = min(low, v.h)
	}
	sh.atLow = 0
	for _, v := range sh.views {
		if v.h == low {
			sh.atLow++
		}
	}
	k := int(low - sh.low)
	for _, b := range sh.blocks[:k] {
		if clear(b.recs); len(sh.spare) < maxSpare {
			sh.spare = append(sh.spare, b.recs[:0])
		}
	}
	n := copy(sh.blocks, sh.blocks[k:])
	clear(sh.blocks[n:])
	sh.blocks, sh.low = sh.blocks[:n], low
}

// Outcomes keeps what the writer of each block of a shared state made of it,
// from the slowest view's height on: one outcome per transaction, under a key
// naming what else they depend on. A view that reaches a block another view
// wrote looks the block up and, when the outcomes are its own, only advances
// (DESIGN.md §7.1); otherwise it leaves.
type Outcomes[K comparable, T any] struct {
	sh    *Shared
	from  uint64 // the block recs[0] records
	recs  []outcomeRec[K, T]
	spare [][]T // dropped records' outcomes, for reuse
}

type outcomeRec[K comparable, T any] struct {
	key  K
	outs []T
}

// NewOutcomes returns an empty record of sh's blocks.
func NewOutcomes[K comparable, T any](sh *Shared) *Outcomes[K, T] {
	return &Outcomes[K, T]{sh: sh}
}

// Record returns n zero outcomes, kept under key, for the writer to fill in
// for the block it opened (Begin).
func (o *Outcomes[K, T]) Record(key K, n int) []T {
	if o.sh.writer == nil {
		panic("ledger: outcomes recorded with no block open")
	}
	o.trim()
	if len(o.recs) == 0 {
		o.from = o.sh.h
	} else if o.from+uint64(len(o.recs)) != o.sh.h {
		panic("ledger: a block written without its outcomes")
	}
	var outs []T
	if k := len(o.spare); k > 0 {
		outs, o.spare = o.spare[k-1], o.spare[:k-1]
	}
	outs = slices.Grow(outs[:0], n)[:n]
	clear(outs)
	o.recs = append(o.recs, outcomeRec[K, T]{key: key, outs: outs})
	return outs
}

// Lookup returns the outcomes the next block of view v was written with, and
// whether it was written under key.
func (o *Outcomes[K, T]) Lookup(v *State, key K) ([]T, bool) {
	o.trim()
	if v.sh != o.sh || v.h < o.from || v.h-o.from >= uint64(len(o.recs)) {
		return nil, false
	}
	r := &o.recs[v.h-o.from]
	return r.outs, r.key == key
}

// trim drops the records of blocks below the slowest view.
func (o *Outcomes[K, T]) trim() {
	if low := o.sh.Low(); low > o.from {
		k := int(min(uint64(len(o.recs)), low-o.from))
		for _, r := range o.recs[:k] {
			if clear(r.outs); len(o.spare) < maxSpare {
				o.spare = append(o.spare, r.outs)
			}
		}
		clear(o.recs[:k])
		o.recs, o.from = o.recs[k:], o.from+uint64(k)
	}
}
