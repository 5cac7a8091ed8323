// Package simnet provides a deterministic discrete-event simulation of a
// datacenter network: a virtual clock, an event queue, endpoints that model
// single-core nodes, and links with configurable propagation latency,
// bandwidth (serialization delay), shared inter-datacenter pipes, jitter,
// and packet loss.
//
// All of BIDL and its baseline frameworks run on top of this substrate, which
// replaces the paper's 20-server, 40 Gbps testbed. Virtual time makes every
// experiment deterministic: the same seed yields the same commit sequence.
package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// event is a scheduled closure or an inlined message delivery. Events are
// ordered by (at, seq), seq being the push counter: events scheduled for the
// same instant run in scheduling order. Events are stored by value inside the
// heap's backing array: scheduling one never heap-allocates an event node and
// never boxes through an interface.
//
// When fn is nil the event is a message delivery or a timer (Context.After)
// and the dst/from/msg/size fields carry the payload directly — the
// per-message closure that used to dominate the hot path's allocation
// profile is gone entirely.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()

	dst  *Endpoint
	from NodeID
	size int64
	msg  Message
}

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Sim is a discrete-event simulator with a virtual clock.
//
// It is not safe for concurrent use; all node logic runs inside the event
// loop on a single goroutine. Distinct Sims share nothing, so independent
// simulations may run on separate goroutines concurrently.
//
// The event queue is an inline 4-ary min-heap of event values. The 4-ary
// layout halves the sift-down depth versus a binary heap and keeps four
// sibling keys near one cache line; storing values (not pointers) means the
// backing array doubles as a free list of event slots — a pop vacates a slot
// that the next push reuses, so the steady-state event loop allocates
// nothing. Vacated slots are zeroed so the GC can reclaim closures.
type Sim struct {
	heap    []event // 4-ary min-heap ordered by event.before
	now     time.Duration
	seq     uint64 // push counter
	rng     *rand.Rand
	nEvents uint64
	stopped bool
}

// NewSim returns a simulator whose randomness is derived entirely from seed.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time: the executing event's timestamp.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Events reports how many events have been executed so far.
func (s *Sim) Events() uint64 { return s.nEvents }

// Pending reports how many events are waiting in the queue.
func (s *Sim) Pending() int { return len(s.heap) }

// At schedules fn at absolute virtual time t.
// Scheduling in the past panics: it would silently reorder causality.
func (s *Sim) At(t time.Duration, fn func()) {
	s.sched(event{at: t, fn: fn})
}

// After schedules fn d after the current virtual time. A negative delay
// panics, mirroring At's past-scheduling check: both used to be easy ways
// to silently reorder causality (After clamped negatives to "now", hiding
// the bug at the call site).
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simnet: scheduling event %v in the past", d))
	}
	s.At(s.now+d, fn)
}

// sched pushes e, stamping its key from the push counter. The caller fills
// every field of e except seq.
func (s *Sim) sched(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	s.heap = heapPush(s.heap, e)
}

// schedDelivery schedules an inlined delivery event for a message or a timer
// — no closure, no allocation beyond (amortized) heap growth.
func (s *Sim) schedDelivery(at time.Duration, dst *Endpoint, from NodeID, msg Message, size int) {
	s.sched(event{at: at, dst: dst, from: from, msg: msg, size: int64(size)})
}

// exec runs one event: either its closure or the inlined delivery.
func exec(e *event) {
	if e.fn != nil {
		e.fn()
		return
	}
	e.dst.net.deliver(e.dst, e.from, e.msg, e.at, int(e.size))
}

// heapPush inserts e into the 4-ary min-heap h, sifting parents down along
// the insertion path instead of swapping, so each level costs one copy.
func heapPush(h []event, e event) []event {
	h = append(h, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return h
}

// heapPop removes and returns the earliest event. The vacated tail slot is
// zeroed (releasing the closure and message) but the backing array is kept,
// so the slot is reused by the next push.
func heapPop(h []event) (event, []event) {
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top, h
}

// Stop halts the event loop after the currently running event returns.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (s *Sim) Run() { s.run(0, false) }

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain queued so the simulation can be resumed.
func (s *Sim) RunUntil(t time.Duration) {
	s.run(t, true)
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// run executes every queued event, or with bounded only those with
// timestamps <= limit.
func (s *Sim) run(limit time.Duration, bounded bool) {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped && !(bounded && s.heap[0].at > limit) {
		var e event
		e, s.heap = heapPop(s.heap)
		s.now = e.at
		s.nEvents++
		exec(&e)
	}
}
