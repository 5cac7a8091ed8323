package ledger

import (
	"cmp"
	"slices"

	"github.com/bidl-framework/bidl/internal/dense"
)

// Shared is one committed world state that several views read, each at its
// own height (DESIGN.md §7.1): the replicas of a cluster that commit the same
// blocks hold it once. head is the state after every block written so far,
// one entry per written key over the shared Base; the views follow a log with
// a step per block from the slowest view's height on, which keeps what the
// block overwrote, so a view below the head rolls an entry back to what it
// held at the view's height (a tombstone keeps its version, which dates the
// deletion). The first view to reach a block writes it (Begin, its writes,
// Advance) and, until Advance, reads the head, its own writes included; a
// view that committed the same block only advances; one that commits anything
// else leaves (Leave), as does one that trails the head by more than
// maxViewLag blocks: it goes on as a state of its own at its height. Views
// join before the first block. Like State it is for one event loop.
type Shared struct {
	head *State
	// h is the number of blocks written; writer is the view writing block h,
	// nil while none is.
	h      uint64
	writer *State
	log    *dense.Log[undoBlock, *State]
}

// maxViewLag is how many blocks a view may trail the head before it goes on
// alone (a node down or cut off for long).
const maxViewLag = 64

// undoBlock is what one block changed: the live key count before it, and each
// key's entry as it stood before the block's first write to it, sorted by id
// once the block is written; and what its writer made of the block (Follow).
type undoBlock struct {
	size int
	recs []undoRec
	out  interface{ reset() }
}

type undoRec struct {
	id   uint32
	prev entry
}

func (b *undoBlock) reset() {
	clear(b.recs)
	if b.recs = b.recs[:0]; b.out != nil {
		b.out.reset()
	}
}

// NewShared returns an empty shared state naming its keys in keys.
func NewShared(keys *dense.Table[string]) *Shared {
	sh := &Shared{head: NewStateOn(keys), log: dense.NewLog(maxViewLag, (*undoBlock).reset, (*State).detach)}
	sh.head.undo = sh
	return sh
}

// View returns a new view at height 0, or a state of its own when the view
// may not join (dense.SetPrivate). It panics once a block was written.
func (sh *Shared) View() *State {
	if sh.h != 0 || sh.writer != nil {
		panic("ledger: a view joins a shared state after its first block")
	}
	v := NewStateOn(sh.head.keys)
	if sh.log.Join(&v.cur, v) {
		v.sh = sh
	}
	return v
}

// top is the height s reads at: its own, or the head's while it writes the
// head's open block.
func (s *State) top() uint64 {
	if s.sh.writer == s {
		return s.cur.Pos() + 1
	}
	return s.cur.Pos()
}

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
func (s *State) Leads() bool { return s.sh != nil && s.cur.Pos() == s.sh.h }

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
	if sh.h == 0 { // after the first block every view has the head's base
		base, views := sh.head.base, sh.log.Followers()
		for i := len(views) - 1; i >= 0; i-- { // Leave deletes views[i] alone
			if v := views[i]; v.base != base {
				v.Leave()
			}
		}
		if s.sh == nil {
			return
		}
	}
	sh.log.Append().size = sh.head.size
	sh.writer = s
}

// Advance moves view s one block up: past the block it wrote since Begin, or
// past the next block another view wrote. A state of its own has no height.
func (s *State) Advance() {
	sh := s.sh
	if sh == nil {
		return
	}
	if sh.writer == s {
		b := sh.log.At(sh.h)
		slices.SortFunc(b.recs, func(x, y undoRec) int { return cmp.Compare(x.id, y.id) })
		sh.writer = nil
		sh.h++
	} else if s.cur.Pos() >= sh.h {
		panic("ledger: Advance past the head")
	}
	sh.log.Advance(&s.cur)
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
	s.detach()
	if sh.log.Leave(&s.cur); len(sh.log.Followers()) == 0 {
		sh.head = nil
	}
}

// save records e, id's entry, before the open block's first write to it.
func (sh *Shared) save(id uint32, e *entry) {
	if e.kind() != absent && e.v>>32 == sh.h {
		return // written earlier in the block: saved then
	}
	b := sh.log.At(sh.h)
	b.recs = append(b.recs, undoRec{id: id, prev: *e})
}

// rollback returns what a view at height h reads at id, given id's entry e in
// the head: e, or the entry e overwrote, as often as it was written at or
// above h.
func (sh *Shared) rollback(id uint32, e *entry, h uint64) *entry {
	for e.kind() != absent && e.v>>32 >= h {
		b := e.v >> 32
		recs := sh.log.At(b).recs
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
	return sh.log.At(h).size
}

// detach makes view s a state of its own holding what it reads.
func (s *State) detach() {
	sh, size := s.sh, s.Len()
	if s.base == sh.head.base { // else nothing was written: s reads its base alone
		s.delta = make(dense.Pages[entry], len(sh.head.delta))
		for i, pg := range sh.head.delta {
			if pg != nil {
				cp := *pg
				s.delta[i] = &cp
			}
		}
		for b := sh.log.Head(); b > s.top(); {
			b--
			for _, r := range sh.log.At(b).recs {
				*s.delta.At(r.id) = r.prev
			}
		}
	}
	s.size, s.sh = size, nil
}

// outcomes is what the writer of a block made of it: one outcome per
// transaction, under a key naming what else they depend on.
type outcomes[K comparable, T any] struct {
	key  K
	outs []T
	ok   bool // recorded for the block
}

func (r *outcomes[K, T]) reset() {
	var zero K
	clear(r.outs)
	r.key, r.outs, r.ok = zero, r.outs[:0], false
}

// Follow readies view v for its next block, of n transactions, that depends
// on key besides the state below it (DESIGN.md §7.1). When another view wrote
// the block under key with outcomes same accepts (nil: any), v adopts them:
// Follow returns them and adopt, and v need only Advance. A view that meets
// the block any other way leaves first. When v then leads it opens the block
// (Begin) and Follow returns n zero outcomes for it to fill in; otherwise v is
// a state of its own and Follow returns nil.
func Follow[K comparable, T any](v *State, key K, n int, same func([]T) bool) (outs []T, adopt bool) {
	if v.Sharing() && !v.Leads() {
		r, _ := v.sh.log.At(v.cur.Pos()).out.(*outcomes[K, T])
		if r != nil && r.ok && r.key == key && (same == nil || same(r.outs)) {
			return r.outs, true
		}
		v.Leave()
	}
	if !v.Leads() {
		return nil, false
	}
	if v.Begin(); !v.Sharing() {
		return nil, false
	}
	b := v.sh.log.At(v.sh.h)
	r, _ := b.out.(*outcomes[K, T])
	if r == nil {
		r = new(outcomes[K, T])
		b.out = r
	}
	r.key, r.outs, r.ok = key, slices.Grow(r.outs[:0], n)[:n], true
	clear(r.outs)
	return r.outs, false
}
