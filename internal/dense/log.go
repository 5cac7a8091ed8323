package dense

import "slices"

// Log is what a cluster computes once for the replicas that follow it
// (DESIGN.md §7.1): a FIFO of steps a leader appends and each follower reads
// in order, kept from the slowest follower's position on. A step the slowest
// follower passed goes to recycle, and its slot, buffers included, to a later
// Append; a follower that trails the head by more than MaxLag steps goes to
// evict and is dropped. Followers join at the head and leave for good; with
// none left the log keeps nothing. Its followers run in one event loop:
// nothing is locked.
type Log[S, F any] struct {
	MaxLag uint64 // smaller in tests

	buf       []S // steps base.. from buf[first] on, circularly; a power of two long
	first, n  int
	base, low uint64 // low is the slowest follower's position
	atLow     int    // followers at low
	curs      []*Cursor
	owner     []F // owner[i] follows at curs[i]
	recycle   func(*S)
	evict     func(F)
}

// A Cursor is a follower's position in a Log: the next step it reads. A
// follower that left keeps the position it left at.
type Cursor struct{ pos uint64 }

// Pos returns c's position.
func (c *Cursor) Pos() uint64 { return c.pos }

// NewLog returns an empty log. recycle empties a step the slowest follower
// passed, keeping what a later Append may reuse. evict makes a follower that
// trails by more than maxLag go on alone; it must not call Leave.
func NewLog[S, F any](maxLag uint64, recycle func(*S), evict func(F)) *Log[S, F] {
	return &Log[S, F]{MaxLag: maxLag, recycle: recycle, evict: evict}
}

var private bool

// SetPrivate makes Join refuse every follower while p, until restore is
// called: each replica then computes everything itself. Tests only: logs
// joined concurrently with the call race with it.
func SetPrivate(p bool) (restore func()) {
	prev := private
	private = p
	return func() { private = prev }
}

// Join adds owner as a follower at cursor c, placed at the head, and reports
// whether it joined: under SetPrivate(true) nobody does.
func (l *Log[S, F]) Join(c *Cursor, owner F) bool {
	if private {
		return false
	}
	c.pos = l.Head()
	l.curs, l.owner = append(l.curs, c), append(l.owner, owner)
	l.rescan()
	return true
}

// Head is the position the next Append takes.
func (l *Log[S, F]) Head() uint64 { return l.base + uint64(l.n) }

// Low is the position of the first step held, the slowest follower's.
func (l *Log[S, F]) Low() uint64 { return l.base }

// Followers returns the followers in the order they joined; the slice is the
// log's, good until a follower leaves.
func (l *Log[S, F]) Followers() []F { return l.owner }

// At returns the step at pos, from Low up to Head.
func (l *Log[S, F]) At(pos uint64) *S {
	return &l.buf[(l.first+int(pos-l.base))&(len(l.buf)-1)]
}

// Append adds a step at the head and returns it to be filled in: the slot of
// a recycled step, holding what recycle left, or a zero step.
func (l *Log[S, F]) Append() *S {
	if l.n == len(l.buf) {
		buf := make([]S, max(4, 2*l.n))
		k := copy(buf, l.buf[l.first:])
		copy(buf[k:], l.buf[:l.first])
		l.buf, l.first = buf, 0
	}
	l.n++
	return l.At(l.Head() - 1)
}

// Advance moves the follower at c past its step, drops the steps nobody reads
// any more and evicts the followers that now trail by more than MaxLag.
func (l *Log[S, F]) Advance(c *Cursor) {
	if c.pos >= l.Head() {
		panic("dense: a follower advances past the head of its log")
	}
	if c.pos++; c.pos-1 == l.low {
		if l.atLow--; l.atLow == 0 {
			l.rescan()
		}
	}
	for len(l.curs) > 0 && l.Head()-l.low > l.MaxLag {
		for i := len(l.curs) - 1; i >= 0; i-- {
			if l.curs[i].pos == l.low {
				l.evict(l.owner[i])
				l.curs, l.owner = slices.Delete(l.curs, i, i+1), slices.Delete(l.owner, i, i+1)
			}
		}
		l.rescan()
	}
}

// Leave drops the follower at c, if it follows.
func (l *Log[S, F]) Leave(c *Cursor) {
	if i := slices.Index(l.curs, c); i >= 0 {
		l.curs, l.owner = slices.Delete(l.curs, i, i+1), slices.Delete(l.owner, i, i+1)
		l.rescan()
	}
}

// rescan finds the slowest follower and recycles the steps before it; with
// no follower left it drops every step and its buffers.
func (l *Log[S, F]) rescan() {
	if len(l.curs) == 0 {
		l.base, l.buf, l.first, l.n = l.Head(), nil, 0, 0
		return
	}
	l.low, l.atLow = l.curs[0].pos, 0
	for _, c := range l.curs {
		if c.pos < l.low {
			l.low, l.atLow = c.pos, 0
		}
		if c.pos == l.low {
			l.atLow++
		}
	}
	for ; l.base < l.low; l.base++ {
		l.recycle(l.At(l.base))
		l.first, l.n = (l.first+1)&(len(l.buf)-1), l.n-1
	}
}
