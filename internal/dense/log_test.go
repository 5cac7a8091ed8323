package dense

import (
	"slices"
	"testing"
)

// logStep is a step with a buffer a recycled slot keeps.
type logStep struct {
	n   int
	buf []int
}

type logFollower struct {
	name string
	cur  Cursor
}

// newTestLog returns a log of logSteps whose recycled and evicted steps and
// followers are listed in order.
func newTestLog(maxLag uint64) (l *Log[logStep, *logFollower], recycled *[]int, evicted *[]string) {
	recycled, evicted = new([]int), new([]string)
	l = NewLog(maxLag, func(s *logStep) {
		*recycled = append(*recycled, s.n)
		s.n, s.buf = -1, s.buf[:0]
	}, func(f *logFollower) { *evicted = append(*evicted, f.name) })
	return l, recycled, evicted
}

// A step stays until the slowest follower passed it; it is then recycled in
// order, and its slot, buffer included, is what a later Append returns.
// Leaving moves the slowest position like advancing.
func TestLogTrimsAtTheSlowestFollower(t *testing.T) {
	l, recycled, _ := newTestLog(100)
	a, b := &logFollower{name: "a"}, &logFollower{name: "b"}
	if !l.Join(&a.cur, a) || !l.Join(&b.cur, b) {
		t.Fatal("a follower did not join")
	}
	for i := 0; i < 3; i++ {
		s := l.Append()
		s.n, s.buf = i, append(s.buf, i)
		l.Advance(&a.cur)
	}
	if a.cur.Pos() != 3 || b.cur.Pos() != 0 || l.Low() != 0 || l.Head() != 3 || len(*recycled) != 0 {
		t.Fatalf("a at %d, b at %d, steps %d..%d, recycled %v", a.cur.Pos(), b.cur.Pos(), l.Low(), l.Head(), *recycled)
	}
	l.Advance(&b.cur)
	l.Advance(&b.cur)
	if l.Low() != 2 || !slices.Equal(*recycled, []int{0, 1}) || l.At(2).n != 2 {
		t.Fatalf("after b passed two steps: steps from %d, recycled %v", l.Low(), *recycled)
	}
	s := l.Append() // four slots: the first recycled one is not yet reused
	if s.n != 0 || cap(s.buf) != 0 {
		t.Fatalf("the fourth slot holds %+v", *s)
	}
	s = l.Append()
	if s.n != -1 || cap(s.buf) == 0 {
		t.Fatalf("the fifth Append returns %+v, not step 0's recycled slot", *s)
	}
	l.Leave(&b.cur)
	if l.Low() != 3 || !slices.Equal(*recycled, []int{0, 1, 2}) || len(l.Followers()) != 1 {
		t.Fatalf("after b left: steps from %d, recycled %v, %d followers", l.Low(), *recycled, len(l.Followers()))
	}
}

// A follower that trails the head by more than MaxLag is evicted, with every
// follower at its position, and the steps before the next slowest go; no
// follower is evicted within the bound.
func TestLogEvictsPastTheLagBound(t *testing.T) {
	l, recycled, evicted := newTestLog(3)
	fs := []*logFollower{{name: "lead"}, {name: "slow"}, {name: "slow too"}, {name: "middle"}}
	for _, f := range fs {
		l.Join(&f.cur, f)
	}
	lead, middle := fs[0], fs[3]
	for i := 0; i < 4; i++ {
		l.Append().n = i
		l.Advance(&lead.cur)
		if i == 1 {
			l.Advance(&middle.cur)
		}
		if want := i >= 3; (len(*evicted) > 0) != want {
			t.Fatalf("head at %d: evicted %v", l.Head(), *evicted)
		}
	}
	if !slices.Equal(*evicted, []string{"slow too", "slow"}) || len(l.Followers()) != 2 {
		t.Fatalf("evicted %v, %d followers left", *evicted, len(l.Followers()))
	}
	if l.Low() != 1 || !slices.Equal(*recycled, []int{0}) {
		t.Fatalf("steps from %d, recycled %v", l.Low(), *recycled)
	}
}

// With no follower left a log keeps no step and no buffer, and no follower
// joins any log under SetPrivate(true).
func TestLogEmptyAndPrivate(t *testing.T) {
	l, _, _ := newTestLog(10)
	f := &logFollower{name: "only"}
	l.Join(&f.cur, f)
	l.Append()
	l.Leave(&f.cur)
	if l.buf != nil || l.Head() != l.Low() || f.cur.Pos() != 0 {
		t.Fatalf("with no follower the log holds %d slots, steps %d..%d", len(l.buf), l.Low(), l.Head())
	}
	restore := SetPrivate(true)
	joined := l.Join(&f.cur, f)
	restore()
	if joined || len(l.Followers()) != 0 {
		t.Fatal("a follower joined a log under SetPrivate(true)")
	}
}

// Once the slots exist, a step costs no allocation: appending, advancing two
// followers and recycling reuse the slot and its buffer.
func TestLogStepAllocatesNothing(t *testing.T) {
	l, _, _ := newTestLog(1 << 10)
	a, b := &logFollower{name: "a"}, &logFollower{name: "b"}
	l.Join(&a.cur, a)
	l.Join(&b.cur, b)
	step := func() {
		s := l.Append()
		s.buf = append(s.buf[:0], 1, 2, 3)
		l.Advance(&a.cur)
		l.Advance(&b.cur)
	}
	for i := 0; i < 8; i++ {
		step()
	}
	l.recycle = func(s *logStep) { s.buf = s.buf[:0] }
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a step allocates %.1f times", n)
	}
}

// A ring that grew for a follower trailing by 64 steps halves back once that
// follower leaves or is evicted, down to 16 slots, keeping the slots that
// follow its steps with their buffers; while its followers stay it keeps its
// size.
func TestLogShrinksWhenATrailerLeaves(t *testing.T) {
	for _, evict := range []bool{false, true} {
		l, recycled, evicted := newTestLog(64)
		lead, trail := &logFollower{name: "lead"}, &logFollower{name: "trail"}
		l.Join(&lead.cur, lead)
		l.Join(&trail.cur, trail)
		for i := 0; i < 64; i++ {
			s := l.Append()
			s.n, s.buf = i, append(s.buf, i)
			l.Advance(&lead.cur)
		}
		if len(l.buf) != 64 {
			t.Fatalf("64 steps held in %d slots", len(l.buf))
		}
		l.Advance(&trail.cur) // one step recycled: the ring still holds 63
		if len(l.buf) != 64 {
			t.Fatalf("with its followers staying the ring went from 64 to %d slots", len(l.buf))
		}
		if evict {
			s := l.Append() // the 65th step leaves the trailer 65 behind
			s.n = 64
			l.Append().n = 65
			l.Advance(&lead.cur)
			l.Advance(&lead.cur)
			// Step 65, moved when the ring shrank at the eviction, is
			// recycled from its new slot.
			if !slices.Equal(*evicted, []string{"trail"}) || (*recycled)[len(*recycled)-1] != 65 {
				t.Fatalf("evicted %v, recycled last %d", *evicted, (*recycled)[len(*recycled)-1])
			}
		} else {
			l.Leave(&trail.cur)
		}
		if len(l.buf) != 16 || l.Low() != l.Head() {
			t.Fatalf("evict %t: after the trailer went %d slots hold steps %d..%d", evict, len(l.buf), l.Low(), l.Head())
		}
		s := l.Append()
		if s.n != -1 || cap(s.buf) == 0 {
			t.Fatalf("evict %t: the first Append after shrinking returns %+v, not a recycled slot", evict, *s)
		}
	}
}
