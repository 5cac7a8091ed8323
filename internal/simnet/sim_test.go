package simnet

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("clock = %v, want 3ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.After(time.Millisecond, func() {
		s.After(time.Millisecond, func() { fired = true })
	})
	s.Run()
	if !fired {
		t.Fatal("nested event did not fire")
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("clock = %v, want 2ms", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewSim(1)
	s.After(2*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(time.Millisecond, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := NewSim(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunUntil(5 * time.Millisecond)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want 5ms", s.Now())
	}
	s.RunUntil(20 * time.Millisecond)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("clock advanced to %v, want 20ms", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewSim(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewSim(42), NewSim(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	// After used to clamp negative delays to "now", silently reordering
	// causality at the call site; it now panics like At's past check.
	s := NewSim(1)
	defer func() {
		if recover() == nil {
			t.Error("After(-1s) did not panic")
		}
	}()
	s.After(-time.Second, func() {})
}

func TestAfterZeroBoundary(t *testing.T) {
	// The boundary case d == 0 stays legal: the event fires at the current
	// instant, after the currently executing event.
	s := NewSim(1)
	var got []int
	s.After(time.Millisecond, func() {
		s.After(0, func() { got = append(got, 2) })
		got = append(got, 1)
	})
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("After(0) misbehaved: %v", got)
	}
	if s.Now() != time.Millisecond {
		t.Fatalf("clock = %v, want 1ms", s.Now())
	}
}

func TestNegativeAfterInsideEventPanics(t *testing.T) {
	// The same contract holds mid-run, where the old clamp was most
	// dangerous: now is far from zero and a negative delay rewound time.
	s := NewSim(1)
	s.After(2*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("After(-1ms) inside an event did not panic")
			}
		}()
		s.After(-time.Millisecond, func() {})
	})
	s.Run()
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	// Resume semantics: RunUntil must advance the clock to t even when no
	// events exist, so a driver can idle the simulation forward and later
	// schedules land relative to t.
	s := NewSim(1)
	s.RunUntil(5 * time.Millisecond)
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want 5ms with an empty queue", s.Now())
	}
	fired := time.Duration(-1)
	s.After(time.Millisecond, func() { fired = s.Now() })
	s.RunUntil(10 * time.Millisecond)
	if fired != 6*time.Millisecond {
		t.Fatalf("resumed event fired at %v, want 6ms", fired)
	}
}

func TestRunUntilEventExactlyAtBoundary(t *testing.T) {
	// Events with at == t are inside the window (RunUntil is inclusive);
	// at == t+1ns stays queued for the next resume.
	s := NewSim(1)
	var fired []time.Duration
	s.At(5*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.At(5*time.Millisecond+time.Nanosecond, func() { fired = append(fired, s.Now()) })
	s.RunUntil(5 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 5*time.Millisecond {
		t.Fatalf("window [0,5ms] fired %v, want exactly the 5ms event", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want the 5ms+1ns event queued", s.Pending())
	}
	s.RunUntil(5*time.Millisecond + time.Nanosecond)
	if len(fired) != 2 || fired[1] != 5*time.Millisecond+time.Nanosecond {
		t.Fatalf("resume did not fire the boundary+1ns event: %v", fired)
	}
}

func TestRunUntilStopMidWindowThenResume(t *testing.T) {
	// Stop inside a bounded window halts immediately and must NOT advance
	// the clock to t: unexecuted events remain and time cannot have passed
	// them by. A subsequent RunUntil resumes exactly where the stop landed.
	s := NewSim(1)
	var fired []int
	for i := 1; i <= 6; i++ {
		i := i
		s.After(time.Duration(i)*time.Millisecond, func() {
			fired = append(fired, i)
			if i == 2 {
				s.Stop()
			}
		})
	}
	s.RunUntil(5 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want stop after event 2", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("clock = %v after Stop, want 2ms (not the window bound)", s.Now())
	}
	s.RunUntil(10 * time.Millisecond)
	if len(fired) != 6 {
		t.Fatalf("resume fired %v, want all six events", fired)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v, want 10ms", s.Now())
	}
}
