package simnet

import (
	"testing"
	"time"
)

// timerRig is one endpoint with a Timer whose callback logs the virtual time
// it ran at and whether the timer still read as armed then.
type timerRig struct {
	s     *Sim
	n     *Network
	ep    *Endpoint
	t     Timer
	fired []time.Duration
	armed []bool
}

func newTimerRig() *timerRig {
	r := &timerRig{s: NewSim(1)}
	r.n = NewNetwork(r.s, DefaultTopology())
	r.ep = r.n.Register("node", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	r.t = NewTimer(func(ctx *Context) {
		r.fired = append(r.fired, ctx.Now())
		r.armed = append(r.armed, r.t.Armed())
	})
	return r
}

// arm arms the rig's timer d after virtual time at and reports, through ok,
// whether Arm scheduled it.
func (r *timerRig) arm(at, d time.Duration, ok *bool) {
	r.s.At(at, func() { *ok = r.t.Arm(NewInjectedContext(r.n, r.ep), d) })
}

func TestTimerArmsOnce(t *testing.T) {
	const ms = time.Millisecond
	r := newTimerRig()
	var first, second bool
	r.arm(0, 2*ms, &first)
	r.arm(ms, 2*ms, &second)
	r.s.RunUntil(ms)
	if !first || second || !r.t.Armed() {
		t.Fatalf("Arm reported %v then %v, Armed %v; want true, false, true", first, second, r.t.Armed())
	}
	r.s.Run()
	if len(r.fired) != 1 || r.fired[0] != 2*ms {
		t.Fatalf("fired at %v; want once, at 2ms", r.fired)
	}
	if r.armed[0] || r.t.Armed() {
		t.Fatalf("Armed read %v in the callback and %v after it; want false, false", r.armed[0], r.t.Armed())
	}
	var again bool
	r.arm(r.s.Now(), ms, &again)
	r.s.Run()
	if !again || len(r.fired) != 2 {
		t.Fatalf("re-arm after firing reported %v and fired %d times; want true, 2", again, len(r.fired))
	}
}

// TestTimerRearmsFromCallback: a callback that re-arms its own timer (a
// ticker) schedules the next tick, because firing disarmed it first.
func TestTimerRearmsFromCallback(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	ep := n.Register("node", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	ticks := 0
	var tick Timer
	tick = NewTimer(func(ctx *Context) {
		if ticks++; ticks < 3 && !tick.Arm(ctx, time.Millisecond) {
			t.Fatal("a firing timer is still armed in its callback")
		}
	})
	s.At(0, func() { tick.Arm(NewInjectedContext(n, ep), time.Millisecond) })
	s.Run()
	if ticks != 3 || s.Now() != 3*time.Millisecond {
		t.Fatalf("%d ticks, last at %v; want 3 at 3ms", ticks, s.Now())
	}
}

// TestTimerAcrossLives pins what a crash does to a Timer: SetDown disarms
// it; its delivery vanishes if it pops while the endpoint is down, and still
// runs if it pops after Restart, beside one armed in the new life.
func TestTimerAcrossLives(t *testing.T) {
	const ms = time.Millisecond
	t.Run("fires while down", func(t *testing.T) {
		r := newTimerRig()
		var armed, rearmed bool
		r.arm(0, 2*ms, &armed)
		r.s.At(ms, func() {
			r.ep.SetDown(true)
			if r.t.Armed() {
				t.Error("SetDown(true) left the timer armed")
			}
		})
		r.s.At(3*ms, r.ep.Restart)
		r.arm(4*ms, ms, &rearmed)
		r.s.Run()
		if !armed || !rearmed || len(r.fired) != 1 || r.fired[0] != 5*ms {
			t.Fatalf("armed %v, re-armed %v, fired at %v; want true, true, [5ms]", armed, rearmed, r.fired)
		}
	})
	t.Run("fires after restart", func(t *testing.T) {
		r := newTimerRig()
		var armed, rearmed bool
		r.arm(0, 4*ms, &armed)
		r.s.At(ms, func() { r.ep.SetDown(true) })
		r.s.At(2*ms, r.ep.Restart)
		r.arm(3*ms, 3*ms, &rearmed)
		r.s.Run()
		if !armed || !rearmed || len(r.fired) != 2 || r.fired[0] != 4*ms || r.fired[1] != 6*ms {
			t.Fatalf("armed %v, re-armed %v, fired at %v; want true, true, [4ms 6ms]", armed, rearmed, r.fired)
		}
		// Firing the old life's delivery disarms the timer, though the new
		// life's is still pending.
		if r.armed[0] {
			t.Fatal("the timer read as armed in the old life's callback")
		}
	})
}

// TestZeroTimerIsCooldown: the zero Timer has no callback; firing disarms it.
func TestZeroTimerIsCooldown(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	ep := n.Register("node", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	var cool Timer
	s.At(0, func() { cool.Arm(NewInjectedContext(n, ep), time.Millisecond) })
	s.RunUntil(time.Millisecond / 2)
	if !cool.Armed() {
		t.Fatal("cooldown not armed")
	}
	s.Run()
	if cool.Armed() {
		t.Fatal("cooldown still armed after firing")
	}
}

// TestTimerArmAllocs pins Timer.Arm at zero allocations: the timer itself is
// the inlined delivery, its callback bound once.
func TestTimerArmAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := newTimerRig()
	allocs := testing.AllocsPerRun(200, func() {
		r.t.Arm(NewInjectedContext(r.n, r.ep), time.Millisecond)
		r.s.Run()
	})
	if len(r.fired) != 201 {
		t.Fatalf("timer fired %d times, want 201", len(r.fired))
	}
	if allocs > 0 {
		t.Fatalf("Timer.Arm = %v allocs/op, want 0", allocs)
	}
}
