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
// The simulator optionally runs as a conservative parallel discrete-event
// simulation (PDES): the event queue is partitioned by node group, each
// partition executes on its own goroutine with its own deterministic RNG
// stream, and link-latency lookahead bounds how far a partition may advance
// before synchronizing (see psim.go). A parallel run is byte-identical to a
// serial run of the same partitioned simulation at the same seed.
package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// MaxPartitions is the largest supported partition count: the event key
// reserves 6 bits for the originating partition index.
const MaxPartitions = 64

// event is a scheduled closure or an inlined message delivery. Events are
// ordered by (at, seq) where seq packs (push counter << 6 | origin
// partition): counters are per-partition, so the key is a total order that
// every partition can assign without synchronization, and with a single
// partition it degenerates to the classic scheduling-order tie-break.
// Events are stored by value inside the heap's backing array: scheduling one
// never heap-allocates an event node and never boxes through an interface.
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

// partition is one shard of the simulation: a private event heap, clock,
// push counter, and RNG stream. Partition 0 always exists and is seeded
// exactly like the historical single-queue simulator, so single-partition
// runs reproduce every prior trace bit-for-bit.
type partition struct {
	heap    []event // 4-ary min-heap ordered by event.before
	now     time.Duration
	seq     uint64 // push counter (pre-shift)
	rng     *rand.Rand
	nEvents uint64
}

// nextSeq assigns the next event key suffix for a push originating here.
func (p *partition) nextSeq(idx int) uint64 {
	p.seq++
	return p.seq<<6 | uint64(idx)
}

// Sim is a discrete-event simulator with a virtual clock.
//
// With one partition (the default) it is not safe for concurrent use; all
// node logic runs inside the event loop on a single goroutine. Distinct Sims
// share nothing, so independent simulations may run on separate goroutines
// concurrently. With SetPartitions(k>1) and SetWorkers(w>1), Run and
// RunUntil execute partitions concurrently under the conservative windowed
// protocol in psim.go; handlers in different partitions then run on
// different goroutines and must not share mutable state.
//
// Each partition's event queue is an inline 4-ary min-heap of event values.
// The 4-ary layout halves the sift-down depth versus a binary heap and keeps
// four sibling keys near one cache line; storing values (not pointers) means
// the backing array doubles as a free list of event slots — a pop vacates a
// slot that the next push reuses, so the steady-state event loop allocates
// nothing. Vacated slots are zeroed so the GC can reclaim closures.
type Sim struct {
	parts []*partition
	seed  int64

	// now is the global clock: the timestamp of the event being executed in
	// serial mode, the window frontier between barriers in parallel mode.
	now time.Duration
	// cur is the partition whose event is executing (serial mode only);
	// pushes made outside any event (setup code, drivers between RunUntil
	// calls) originate from partition 0.
	cur     int
	stopped bool

	// workers is the desired execution concurrency; values below 2 keep the
	// serial engine. forceSerial pins the serial engine regardless (the
	// byte-identity baseline for determinism tests).
	workers     int
	forceSerial bool
	// lookahead reports the minimum cross-partition scheduling delay the
	// attached network guarantees, re-queried at every Run/RunUntil;
	// nil or a non-positive bound disables parallel execution.
	lookahead func() time.Duration

	// par is non-nil while a parallel window executes (see psim.go). It is
	// written only by the coordinator while workers are quiescent.
	par *parRun
}

// NewSim returns a simulator whose randomness is derived entirely from seed.
func NewSim(seed int64) *Sim {
	return &Sim{
		parts: []*partition{{rng: rand.New(rand.NewSource(seed))}},
		seed:  seed,
	}
}

// SetPartitions splits the simulation into n event-queue partitions
// (1 <= n <= MaxPartitions). Partition 0 keeps the seed's historical RNG
// stream; partitions 1..n-1 get independent streams derived from the seed.
// It must be called before any event is scheduled: repartitioning a live
// queue would reorder causality.
func (s *Sim) SetPartitions(n int) {
	if n < 1 || n > MaxPartitions {
		panic(fmt.Sprintf("simnet: SetPartitions(%d) out of range [1,%d]", n, MaxPartitions))
	}
	if len(s.parts[0].heap) > 0 || s.parts[0].nEvents > 0 || len(s.parts) > 1 {
		panic("simnet: SetPartitions after events were scheduled or partitions set")
	}
	for i := 1; i < n; i++ {
		// Golden-ratio offset decorrelates the derived streams from both the
		// base seed and each other.
		s.parts = append(s.parts, &partition{
			rng: rand.New(rand.NewSource(s.seed ^ int64(uint64(i)*0x9e3779b97f4a7c15))),
		})
	}
}

// NumPartitions returns the partition count (>= 1).
func (s *Sim) NumPartitions() int { return len(s.parts) }

// PartitionCount derives a hub-and-shards partition count from a requested
// worker concurrency and the number of shardable node groups: one hub
// partition for nodes that share mid-run state plus up to workers-1 shard
// partitions, capped so no partition is left empty (groups+1) and by
// MaxPartitions. Workers < 2 keeps the single-queue serial engine. Both
// cluster builders (BIDL and the fabric baselines) use this rule.
func PartitionCount(workers, groups int) int {
	if workers < 2 {
		return 1
	}
	k := workers
	if groups+1 < k {
		k = groups + 1
	}
	if k > MaxPartitions {
		k = MaxPartitions
	}
	return k
}

// ShardPartition places shardable group g (an organization) in a partition:
// partition 0 is the hub; groups round-robin over partitions 1..nparts-1.
func ShardPartition(g, nparts int) int {
	if nparts < 2 {
		return 0
	}
	return 1 + g%(nparts-1)
}

// SetWorkers sets the desired execution concurrency. Parallel execution
// engages only when workers > 1, more than one partition exists, the
// lookahead bound is positive, and ForceSerial is off.
func (s *Sim) SetWorkers(w int) { s.workers = w }

// ForceSerial pins the serial engine regardless of workers/partitions —
// the reference executor that parallel runs must match byte-for-byte.
func (s *Sim) ForceSerial(v bool) { s.forceSerial = v }

// SetLookahead installs the function that bounds the minimum delay of any
// cross-partition schedule (the conservative-PDES lookahead). Networks
// install their own bound at construction; tests may override.
func (s *Sim) SetLookahead(fn func() time.Duration) { s.lookahead = fn }

// Now returns the current virtual time: the executing event's timestamp in
// serial mode, the last barrier frontier during a parallel run.
func (s *Sim) Now() time.Duration { return s.now }

// partNow returns partition p's local clock, which equals the global clock
// whenever the serial engine is driving.
func (s *Sim) partNow(p int) time.Duration {
	if s.par != nil {
		return s.parts[p].now
	}
	return s.now
}

// Rand returns partition 0's deterministic random source — the stream the
// historical single-queue simulator exposed. During a parallel run it must
// only be used from partition-0 handlers; partitioned handlers use
// Context.Rand, which resolves their own stream.
func (s *Sim) Rand() *rand.Rand { return s.parts[0].rng }

// partRng returns partition p's deterministic random source.
func (s *Sim) partRng(p int) *rand.Rand { return s.parts[p].rng }

// Events reports how many events have been executed so far.
func (s *Sim) Events() uint64 {
	var n uint64
	for _, p := range s.parts {
		n += p.nEvents
	}
	return n
}

// Pending reports how many events are waiting in the queues.
func (s *Sim) Pending() int {
	n := 0
	for _, p := range s.parts {
		n += len(p.heap)
	}
	return n
}

// At schedules fn at absolute virtual time t on the current partition.
// Scheduling in the past panics: it would silently reorder causality.
// During a parallel window only Context-based scheduling is legal.
func (s *Sim) At(t time.Duration, fn func()) {
	if s.par != nil {
		panic("simnet: Sim.At during parallel execution; schedule through a Context")
	}
	s.sched(s.cur, s.cur, event{at: t, fn: fn})
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

// sched routes an event originating in partition op to partition dp's
// queue, stamping its key from op's push counter. The caller fills every
// field of e except at-key bookkeeping (seq).
func (s *Sim) sched(op, dp int, e event) {
	e.seq = s.parts[op].nextSeq(op)
	if r := s.par; r != nil {
		r.push(op, dp, e)
		return
	}
	if e.at < s.now {
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", e.at, s.now))
	}
	s.parts[dp].heap = heapPush(s.parts[dp].heap, e)
}

// schedDelivery schedules an inlined delivery event for a message or a timer
// — no closure, no allocation beyond (amortized) heap growth.
func (s *Sim) schedDelivery(op int, at time.Duration, dst *Endpoint, from NodeID, msg Message, size int) {
	s.sched(op, dst.part, event{at: at, dst: dst, from: from, msg: msg, size: int64(size)})
}

// schedTimer schedules fn on partition p's queue at absolute time at, with
// p as the originating partition (an endpoint's processNext continuation).
func (s *Sim) schedTimer(p int, at time.Duration, fn func()) {
	s.sched(p, p, event{at: at, fn: fn})
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

// Stop halts the event loop after the currently running event returns. In a
// parallel run, other partitions may finish the already-released lookahead
// window before the halt takes effect (Stop mid-run is a serial-engine
// debugging affordance; the scenario layer never stops a parallel run).
func (s *Sim) Stop() {
	if r := s.par; r != nil {
		r.stop.Store(true)
		return
	}
	s.stopped = true
}

// minPart returns the index of the partition whose head event is globally
// earliest, or -1 when every queue is empty. Event keys are unique, so the
// comparison never ties.
func (s *Sim) minPart() int {
	best := -1
	for i, p := range s.parts {
		if len(p.heap) == 0 {
			continue
		}
		if best < 0 || p.heap[0].before(&s.parts[best].heap[0]) {
			best = i
		}
	}
	return best
}

// Run executes events until the queues are empty or Stop is called.
func (s *Sim) Run() {
	if s.parallelOK() {
		s.runParallel(0, false)
		return
	}
	s.runSerial(0, false)
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain queued so the simulation can be resumed.
func (s *Sim) RunUntil(t time.Duration) {
	if s.parallelOK() {
		s.runParallel(t, true)
		return
	}
	s.runSerial(t, true)
	if !s.stopped && s.now < t {
		s.now = t
		for _, p := range s.parts {
			p.now = t
		}
	}
}

// runSerial is the serial executor: every queued event, or with bounded only
// those with timestamps <= limit.
func (s *Sim) runSerial(limit time.Duration, bounded bool) {
	s.stopped = false
	if len(s.parts) == 1 {
		// Single-partition fast path: the historical event loop.
		p := s.parts[0]
		for len(p.heap) > 0 && !s.stopped && !(bounded && p.heap[0].at > limit) {
			var e event
			e, p.heap = heapPop(p.heap)
			s.now, p.now = e.at, e.at
			p.nEvents++
			exec(&e)
		}
		return
	}
	// Serial reference executor over k partitions: a k-way merge in global
	// key order — the order the parallel engine must reproduce.
	for !s.stopped {
		pi := s.minPart()
		if pi < 0 || bounded && s.parts[pi].heap[0].at > limit {
			break
		}
		p := s.parts[pi]
		var e event
		e, p.heap = heapPop(p.heap)
		s.now, p.now, s.cur = e.at, e.at, pi
		p.nEvents++
		exec(&e)
	}
	s.cur = 0
}
