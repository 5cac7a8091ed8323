// Package simnet provides a deterministic discrete-event simulation of a
// datacenter network: a virtual clock, an event queue, endpoints that model
// single-core nodes, and links with configurable propagation latency,
// bandwidth (serialization delay), shared inter-datacenter pipes, jitter,
// and packet loss.
//
// All of BIDL and its baseline frameworks run on top of this substrate, which
// replaces the paper's 20-server, 40 Gbps testbed. Virtual time makes every
// experiment deterministic: the same seed yields the same commit sequence.
//
// Every event — a closure, a message or timer delivery, a core's wake-up —
// has a key (at, seq), seq being a counter stamped when it is scheduled, and
// events run in key order. The queue's cost follows the simulated work, not
// the fan-out: a multicast or a Context.SendEach is one queue entry holding
// each receiver's key, and a core that goes idle only reserves its wake-up's
// key. Events counts the logical events all the same (DESIGN.md §10).
package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// slotBits is how many low bits of a key's id name its payload's slab slot;
// the sequence number takes the rest.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1
)

// key is a queue entry's place: (at, seq<<slotBits | slot). Keys are
// pointer-free, 16 bytes, and unique, since seq is. Ordering by id orders by
// seq: the slot bits below it never decide.
type key struct {
	at time.Duration
	id uint64
}

func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.id < o.id
}

// arrival is one receiver's delivery of a fan-out: its own key's (at, seq).
type arrival struct {
	at  time.Duration
	seq uint64
	dst *Endpoint
}

func (a arrival) compare(b arrival) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// payload is what a queue entry carries, in a reused slab slot: a closure
// (fn), a delivery of msg to dst, or a fan-out of msg to each of fan in key
// order, fan[next] being the receiver the entry's key currently names.
type payload struct {
	fn   func()
	msg  Message
	from NodeID
	size int
	dst  *Endpoint
	fan  []arrival
	next int
}

// Sim is a discrete-event simulator with a virtual clock.
//
// It is not safe for concurrent use; all node logic runs inside the event
// loop on a single goroutine. Distinct Sims share nothing, so independent
// simulations may run on separate goroutines concurrently.
//
// The queue is an inline 4-ary min-heap of keys over a slab of payloads whose
// vacated slots (and fan-out buffers) the next entries reuse, so the
// steady-state event loop allocates nothing and the garbage collector never
// scans the heap.
type Sim struct {
	heap    []key
	slab    []payload
	free    []uint32    // vacated slab slots
	fans    [][]arrival // vacated fan-out buffers
	idle    []*Endpoint // cores that reserved a wake-up since the last settle
	now     time.Duration
	cur     uint64 // seq of the running (or last run) event
	seq     uint64 // last seq stamped
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

// Events reports how many events have run: each receiver of a fan-out and
// each wake-up of a core, a reserved one once a delivery to its core or the
// end of Run or RunUntil finds the loop passed it.
func (s *Sim) Events() uint64 { return s.nEvents }

// Pending reports how many entries are queued, the running one included. A
// fan-out is one entry; an idle core's reserved wake-up is none.
func (s *Sim) Pending() int { return len(s.heap) }

// At schedules fn at absolute virtual time t.
// Scheduling in the past panics: it would silently reorder causality.
func (s *Sim) At(t time.Duration, fn func()) {
	s.seq++
	s.schedFn(t, s.seq, fn)
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

// passed reports whether the key (at, seq) precedes the running event's.
func (s *Sim) passed(at time.Duration, seq uint64) bool {
	return at < s.now || at == s.now && seq < s.cur
}

// alloc returns a vacant slab slot.
func (s *Sim) alloc() uint32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	if len(s.slab) > slotMask {
		panic("simnet: more than 2^24 queued entries")
	}
	s.slab = append(s.slab, payload{})
	return uint32(len(s.slab) - 1)
}

// schedFn queues fn under the key (at, seq).
func (s *Sim) schedFn(at time.Duration, seq uint64, fn func()) {
	slot := s.alloc()
	s.slab[slot].fn = fn
	s.push(at, seq, slot)
}

// push queues slot's payload under (at, seq).
func (s *Sim) push(at time.Duration, seq uint64, slot uint32) {
	if at < s.now {
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", at, s.now))
	}
	if seq > maxSeq {
		panic("simnet: sequence numbers exhausted")
	}
	s.heap = heapPush(s.heap, key{at: at, id: seq<<slotBits | uint64(slot)})
}

// schedDelivery schedules a delivery of a message or a timer to dst — no
// closure, no allocation beyond (amortized) slab and heap growth.
func (s *Sim) schedDelivery(at time.Duration, dst *Endpoint, from NodeID, msg Message, size int) {
	s.seq++
	slot := s.alloc()
	p := &s.slab[slot]
	p.msg, p.from, p.size, p.dst = msg, from, size, dst
	s.push(at, s.seq, slot)
}

// fanout opens an entry that delivers msg from 'from' to the up to n
// receivers arrive adds; post queues it.
func (s *Sim) fanout(from NodeID, msg Message, size, n int) uint32 {
	slot := s.alloc()
	p := &s.slab[slot]
	p.msg, p.from, p.size = msg, from, size
	if k := len(s.fans); k > 0 {
		p.fan, s.fans = s.fans[k-1], s.fans[:k-1]
	} else {
		p.fan = make([]arrival, 0, n)
	}
	return slot
}

// arrive adds a receiver to slot's fan-out at time at, stamping its seq as
// scheduling it alone would.
func (s *Sim) arrive(slot uint32, at time.Duration, dst *Endpoint) {
	s.seq++
	p := &s.slab[slot]
	p.fan = append(p.fan, arrival{at: at, seq: s.seq, dst: dst})
}

// post queues slot's fan-out under its earliest receiver's key, which no
// other receiver's precedes.
func (s *Sim) post(slot uint32) {
	fan := s.slab[slot].fan
	if len(fan) == 0 {
		s.release(slot)
		return
	}
	if !slices.IsSortedFunc(fan, arrival.compare) {
		slices.SortFunc(fan, arrival.compare)
	}
	s.push(fan[0].at, fan[0].seq, slot)
}

// release vacates slot, keeping its fan-out buffer for the next fan-out.
func (s *Sim) release(slot uint32) {
	if fan := s.slab[slot].fan; fan != nil {
		clear(fan)
		s.fans = append(s.fans, fan[:0])
	}
	s.slab[slot] = payload{}
	s.free = append(s.free, slot)
}

// heapPush inserts k into the 4-ary min-heap h, sifting parents down along
// the insertion path instead of swapping, so each level costs one copy.
func heapPush(h []key, k key) []key {
	h = append(h, key{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	return h
}

// siftDown places k at index i of h and moves it down to its place.
func siftDown(h []key, i int, k key) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = k
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
// timestamps <= limit. The running entry stays at the heap's root: whatever it
// schedules comes after it. A fan-out then moves on to its next receiver's key
// and sinks only as far as that key does, so its receivers run inline for as
// long as they precede every other entry.
func (s *Sim) run(limit time.Duration, bounded bool) {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped && !(bounded && s.heap[0].at > limit) {
		top := s.heap[0]
		slot := uint32(top.id & slotMask)
		s.now, s.cur = top.at, top.id>>slotBits
		s.nEvents++
		p := &s.slab[slot]
		switch {
		case p.fn != nil:
			p.fn()
		case p.fan == nil:
			p.dst.net.deliver(p.dst, p.from, p.msg, top.at, p.size)
		default:
			a := p.fan[p.next]
			p.next++
			a.dst.net.deliver(a.dst, p.from, p.msg, a.at, p.size)
			if p = &s.slab[slot]; p.next < len(p.fan) {
				a = p.fan[p.next]
				siftDown(s.heap, 0, key{at: a.at, id: a.seq<<slotBits | uint64(slot)})
				continue
			}
		}
		n := len(s.heap) - 1
		last := s.heap[n]
		s.heap = s.heap[:n]
		if n > 0 {
			siftDown(s.heap, 0, last)
		}
		s.release(slot)
	}
	s.settle(limit, bounded)
}

// settle counts the reserved wake-ups this run passed — all of them once the
// queue is empty, those up to limit at a bounded end, those before the
// running event at Stop — and leaves their cores idle, as each wake-up would
// have found its inbox empty.
func (s *Sim) settle(limit time.Duration, bounded bool) {
	keep := s.idle[:0]
	for _, e := range s.idle {
		at, seq := e.wakeAt, e.wakeSeq
		switch {
		case seq == 0:
			e.listed = false
			continue
		case s.stopped && !s.passed(at, seq), !s.stopped && bounded && at > limit:
			keep = append(keep, e)
			continue
		}
		e.wakeSeq, e.listed, e.processing = 0, false, false
		s.nEvents++
		s.now = max(s.now, at)
	}
	clear(s.idle[len(keep):])
	s.idle = keep
}
