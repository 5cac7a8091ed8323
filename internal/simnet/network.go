package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
)

// NodeID identifies an endpoint within a Network.
type NodeID int

// Message is anything deliverable across the network. Size is used for
// serialization delay on bandwidth-limited links and for the tracer's traffic
// telemetry.
type Message interface {
	Size() int
}

// Handler receives messages and timer callbacks at an endpoint.
type Handler interface {
	OnMessage(ctx *Context, from NodeID, msg Message)
}

// Starter is implemented by handlers that want a callback when the
// simulation starts (scheduled at time zero on the endpoint's own core).
type Starter interface {
	OnStart(ctx *Context)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx *Context, from NodeID, msg Message)

// OnMessage implements Handler.
func (f HandlerFunc) OnMessage(ctx *Context, from NodeID, msg Message) { f(ctx, from, msg) }

// delivery is a message (or timer) waiting in an endpoint's inbox.
type delivery struct {
	from NodeID
	msg  Message
}

// timer is a callback on an endpoint's own core. It travels as a message that
// never crosses a wire: Context.After schedules it as an inlined delivery
// event, which a down endpoint drops silently.
type timer func(*Context)

// Size implements Message.
func (timer) Size() int { return 0 }

// Timer is a one-shot timer bound once to its callback and armed at most once
// at a time. A crash disarms it (SetDown starts a new life of the endpoint); a
// delivery armed before the crash that fires after Restart still runs. Arm
// schedules exactly where Context.After does and allocates nothing: the timer
// is the delivery, so it must not be copied once armed. The zero Timer is a
// cooldown, which firing only disarms.
type Timer struct {
	fn    func(*Context)
	ep    *Endpoint
	life  uint64
	armed bool
}

// NewTimer returns a disarmed timer that runs fn on the core it is armed on.
func NewTimer(fn func(*Context)) Timer { return Timer{fn: fn} }

// Armed reports whether the timer waits to fire in its endpoint's current life.
func (t *Timer) Armed() bool { return t.armed && t.life == t.ep.life }

// Arm schedules the timer d from now on ctx's endpoint unless it is armed
// already, and reports whether it did.
func (t *Timer) Arm(ctx *Context, d time.Duration) bool {
	if t.Armed() {
		return false
	}
	t.ep, t.life, t.armed = ctx.node, ctx.node.life, true
	ctx.net.sim.schedDelivery(ctx.Now()+d, ctx.node, ctx.node.id, t, 0)
	return true
}

// Size implements Message.
func (*Timer) Size() int { return 0 }

// Endpoint models a node with a single dedicated CPU core and one NIC.
// Deliveries queue FIFO and the handler processes them serially; the virtual
// CPU time a handler charges (Context.Elapse) delays subsequent deliveries,
// which is how stage bottlenecks arise in simulations.
type Endpoint struct {
	id      NodeID
	name    string
	dc      int
	net     *Network
	handler Handler

	// queue is the inbox, consumed head-first via qHead so that draining
	// never reallocates: the backing array is reused once empty and
	// compacted in place when the consumed prefix would force a growth.
	queue      []delivery
	qHead      int
	processing bool
	down       bool
	life       uint64 // crashes so far: a Timer armed in an earlier life is disarmed

	// wakeAt and wakeSeq (non-zero) are the key a core with an empty inbox
	// reserved for its next wake-up instead of queueing it: the first
	// delivery either queues the wake-up under that key or, once the loop
	// has passed it, finds the core idle. listed marks the core as on the
	// Sim's list of reservations to settle.
	wakeAt  time.Duration
	wakeSeq uint64
	listed  bool

	// actCtx is the reusable activation context handed to the handler. No
	// handler retains its context past the activation (the bind/defer
	// pattern throughout core restores the previous one), so a single
	// per-endpoint scratch replaces one heap allocation per delivery.
	actCtx Context
	// procFn is the processNext continuation, bound once at registration so
	// scheduling the next delivery does not allocate a fresh closure.
	procFn func()

	// egressFree is when the NIC finishes serializing the last message.
	egressFree time.Duration
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Name returns the human-readable name given at registration.
func (e *Endpoint) Name() string { return e.name }

// DC returns the datacenter index the endpoint lives in.
func (e *Endpoint) DC() int { return e.dc }

// SetDown marks the endpoint crashed (true) or alive (false). A crashed
// endpoint drops all deliveries — including messages already sitting in its
// inbox, which the tracer records as dropped when the (dead) core pops them —
// and loses its own timers: every Timer is disarmed. Prefer Restart over
// SetDown(false) to bring a node back: it gives the handler a chance to
// re-arm its periodic timers.
func (e *Endpoint) SetDown(down bool) {
	if down {
		e.life++
	}
	e.down = down
}

// Restarter is implemented by handlers that need a callback when their
// crashed endpoint comes back up (Endpoint.Restart): free-running timers
// died with the crash, so this is where they are re-armed.
type Restarter interface {
	OnRestart(ctx *Context)
}

// Restart brings a crashed endpoint back up. If the handler implements
// Restarter, OnRestart is enqueued like a regular delivery so recovery work
// runs on the node's own core at the current virtual time.
func (e *Endpoint) Restart() {
	if !e.down {
		return
	}
	e.down = false
	if r, ok := e.handler.(Restarter); ok {
		e.enqueue(delivery{from: e.id, msg: timer(r.OnRestart)})
	}
}

// Network connects endpoints according to a Topology.
type Network struct {
	sim       *Sim
	topo      Topology
	endpoints []*Endpoint
	groups    map[string][]NodeID

	// pipeFree tracks when the shared inter-DC pipe for an ordered DC pair
	// becomes free; keyed by fromDC*4096+toDC.
	pipeFree map[int]time.Duration

	// mcReady maps a multicast's destination datacenters to when the payload
	// is ready to leave for them. It is scratch reused across multicastSend
	// calls, so a fan-out allocates no per-call map; only tracing and
	// inter-DC pipes use it.
	mcReady map[int]time.Duration

	// LatencyOverride, when non-nil, replaces the topology latency for a
	// given endpoint pair. Used by tests and by adversarial scenarios that
	// need to violate the triangle inequality on specific paths.
	LatencyOverride func(from, to NodeID) (time.Duration, bool)

	// DropFilter, when non-nil, can force-drop specific messages
	// (targeted partition/censorship scenarios). Return true to drop.
	DropFilter func(from, to NodeID, msg Message) bool

	// tracer, when non-nil, receives node/link telemetry from the hot
	// paths: it is the one record of traffic, drops, queueing and busy time.
	// Every hot-path hook is guarded by a nil check so disabled tracing adds
	// zero allocations.
	tracer *trace.Tracer
}

// NewNetwork creates a network over the given simulator and topology.
func NewNetwork(sim *Sim, topo Topology) *Network {
	return &Network{
		sim:      sim,
		topo:     topo,
		groups:   make(map[string][]NodeID),
		pipeFree: make(map[int]time.Duration),
		mcReady:  make(map[int]time.Duration),
	}
}

// SetTracer attaches (or, with nil, detaches) a telemetry tracer. Endpoints
// already registered are named into the tracer, so attach order does not
// matter.
func (n *Network) SetTracer(t *trace.Tracer) {
	n.tracer = t
	if t != nil {
		for _, e := range n.endpoints {
			t.RegisterNode(int(e.id), e.name, e.dc)
		}
	}
}

// Register adds an endpoint in datacenter dc with the given handler and
// returns it. If the handler implements Starter, OnStart fires at time zero.
func (n *Network) Register(name string, dc int, h Handler) *Endpoint {
	e := &Endpoint{id: NodeID(len(n.endpoints)), name: name, dc: dc, net: n, handler: h}
	e.procFn = e.processNext
	n.endpoints = append(n.endpoints, e)
	if n.tracer != nil {
		n.tracer.RegisterNode(int(e.id), name, dc)
	}
	if s, ok := h.(Starter); ok {
		n.sim.schedDelivery(0, e, e.id, timer(s.OnStart), 0)
	}
	return e
}

// Endpoint returns the endpoint with the given ID, or nil.
func (n *Network) Endpoint(id NodeID) *Endpoint {
	if int(id) < 0 || int(id) >= len(n.endpoints) {
		return nil
	}
	return n.endpoints[id]
}

// Join adds an endpoint to a named multicast group.
func (n *Network) Join(group string, id NodeID) {
	for _, m := range n.groups[group] {
		if m == id {
			return
		}
	}
	n.groups[group] = append(n.groups[group], id)
}

// Group returns the members of a multicast group.
func (n *Network) Group(group string) []NodeID { return n.groups[group] }

// dropped reports whether the message from 'from' to dst is lost to a
// DropFilter or to random loss (independent per receiver), recording a loss
// with the tracer at time at.
func (n *Network) dropped(from, dst *Endpoint, msg Message, at time.Duration) bool {
	if (n.DropFilter != nil && n.DropFilter(from.id, dst.id, msg)) ||
		(n.topo.LossRate > 0 && n.sim.rng.Float64() < n.topo.LossRate) {
		n.tracer.Dropped(int(dst.id), at)
		return true
	}
	return false
}

// egress serializes size bytes through from's NIC, starting no earlier than
// depart and behind whatever it is still sending, and returns when the last
// byte leaves.
func (n *Network) egress(from *Endpoint, size int, depart time.Duration) time.Duration {
	if n.topo.NICBandwidth <= 0 {
		return depart
	}
	from.egressFree = max(depart, from.egressFree) +
		time.Duration(float64(size)/float64(n.topo.NICBandwidth)*float64(time.Second))
	return from.egressFree
}

// pipe serializes size bytes through the shared fromDC→toDC pipe, entering no
// earlier than ready, and returns when they leave it. Only a capped
// InterDCBandwidth uses pipes.
func (n *Network) pipe(fromDC, toDC, size int, ready time.Duration) time.Duration {
	key := fromDC*4096 + toDC
	done := max(ready, n.pipeFree[key]) +
		time.Duration(float64(size)/float64(n.topo.InterDCBandwidth)*float64(time.Second))
	n.pipeFree[key] = done
	return done
}

// route sends one unicast copy of msg from 'from' to 'to', departing at
// depart: the sender pays NIC egress serialization for it. It returns the
// receiver and the arrival time, or ok false if the copy is lost.
func (n *Network) route(from *Endpoint, to NodeID, msg Message, size int, depart time.Duration) (dst *Endpoint, at time.Duration, ok bool) {
	dst = n.Endpoint(to)
	if dst == nil {
		panic(fmt.Sprintf("simnet: send to unknown endpoint %d", to))
	}
	ready := n.egress(from, size, depart)
	if n.tracer != nil {
		n.tracer.Sent(int(from.id), depart, size)
		n.tracer.Wire(from.dc, dst.dc, ready, size)
	}
	if n.dropped(from, dst, msg, ready) {
		return nil, 0, false
	}
	if from.dc != dst.dc && n.topo.InterDCBandwidth > 0 {
		ready = n.pipe(from.dc, dst.dc, size, ready)
	}
	// The latency (one jitter draw) is computed once, as on the multicast
	// path.
	return dst, ready + n.pathLatency(from, dst), true
}

// send schedules one unicast copy of msg as a delivery event (no closure):
// the steady-state unicast path allocates nothing, pinned by
// TestUntracedDeliveryAllocs.
func (n *Network) send(from *Endpoint, to NodeID, msg Message, depart time.Duration) {
	size := msg.Size()
	if dst, at, ok := n.route(from, to, msg, size, depart); ok {
		n.sim.schedDelivery(at, dst, from.id, msg, size)
	}
}

// deliver lands a message at its destination at virtual time 'at': the shared
// tail of the unicast and multicast paths.
func (n *Network) deliver(dst *Endpoint, from NodeID, msg Message, at time.Duration, size int) {
	switch msg.(type) {
	case timer, *Timer:
		if !dst.down {
			dst.enqueue(delivery{from: from, msg: msg})
		}
		return
	}
	if dst.down {
		n.tracer.Dropped(int(dst.id), at)
		return
	}
	if n.tracer != nil {
		n.tracer.Received(int(dst.id), at, size)
	}
	dst.enqueue(delivery{from: from, msg: msg})
}

// multicastSend performs an IP-multicast emission: the sender pays NIC
// serialization once, and a shared inter-DC pipe carries the payload once per
// destination datacenter (the router replicates it), exactly the property
// that makes Fig 9's multicast optimization matter.
func (n *Network) multicastSend(from *Endpoint, targets []NodeID, msg Message, depart time.Duration) {
	size := msg.Size()
	txDone := n.egress(from, size, depart)
	if n.tracer != nil {
		n.tracer.Sent(int(from.id), depart, size)
	}

	// One wire crossing, and with capped inter-DC bandwidth one pipe
	// crossing, per destination datacenter. ready stays nil on the fast path
	// (untraced, uncapped): lookups on a nil map are legal.
	var ready map[int]time.Duration
	if n.tracer != nil || n.topo.InterDCBandwidth > 0 {
		ready = n.mcReady
		clear(ready)
		for _, t := range targets {
			dst := n.Endpoint(t)
			if dst == nil {
				continue
			}
			if _, seen := ready[dst.dc]; seen {
				continue
			}
			n.tracer.Wire(from.dc, dst.dc, txDone, size)
			at := txDone
			if dst.dc != from.dc && n.topo.InterDCBandwidth > 0 {
				at = n.pipe(from.dc, dst.dc, size, txDone)
			}
			ready[dst.dc] = at
		}
	}

	// One queue entry for every receiver.
	slot := n.sim.fanout(from.id, msg, size, len(targets))
	for _, t := range targets {
		dst := n.Endpoint(t)
		if t == from.id || dst == nil || n.dropped(from, dst, msg, txDone) {
			continue
		}
		at := txDone
		if d, ok := ready[dst.dc]; ok {
			at = d
		}
		n.sim.arrive(slot, at+n.pathLatency(from, dst), dst)
	}
	n.sim.post(slot)
}

func (n *Network) pathLatency(from, to *Endpoint) time.Duration {
	var base time.Duration
	if n.LatencyOverride != nil {
		if d, ok := n.LatencyOverride(from.id, to.id); ok {
			base = d
		} else {
			base = n.topo.latency(from.dc, to.dc)
		}
	} else {
		base = n.topo.latency(from.dc, to.dc)
	}
	if n.topo.Jitter > 0 {
		base += time.Duration(n.sim.rng.Int63n(int64(n.topo.Jitter)))
	}
	return base
}

// enqueue adds a delivery to the endpoint's inbox and kicks the processor.
func (e *Endpoint) enqueue(d delivery) {
	if e.wakeSeq != 0 {
		e.wake()
	}
	if e.qHead > 0 && len(e.queue) == cap(e.queue) {
		// The consumed prefix would force a reallocation: compact the live
		// suffix down in place instead and reuse the backing array.
		live := copy(e.queue, e.queue[e.qHead:])
		clear(e.queue[live:])
		e.queue = e.queue[:live]
		e.qHead = 0
	}
	e.queue = append(e.queue, d)
	if e.net.tracer != nil {
		e.net.tracer.Queue(int(e.id), e.net.sim.now, len(e.queue)-e.qHead)
	}
	if !e.processing {
		e.processNext()
	}
}

// processNext runs the handler on the head-of-queue delivery. The virtual CPU
// time charged by the handler defers processing of the next delivery.
func (e *Endpoint) processNext() {
	e.processing = true
	d := e.queue[e.qHead]
	e.queue[e.qHead] = delivery{} // release the message reference
	e.qHead++
	now := e.net.sim.now
	ctx := &e.actCtx
	*ctx = Context{net: e.net, node: e, start: now}
	if e.down {
		// The core died with deliveries still queued: they are lost, not
		// replayed on restart, and messages are recorded as dropped exactly
		// like arrivals at a down endpoint (deliver). Timers vanish
		// silently — a crashed process has no pending timers to lose.
		switch d.msg.(type) {
		case timer, *Timer:
		default:
			e.net.tracer.Dropped(int(e.id), now)
		}
		e.rest(now)
		return
	}
	switch m := d.msg.(type) {
	case timer:
		m(ctx)
	case *Timer:
		m.armed = false
		if m.fn != nil {
			m.fn(ctx)
		}
	default:
		e.handler.OnMessage(ctx, d.from, d.msg)
	}
	if e.net.tracer != nil {
		e.net.tracer.Busy(int(e.id), ctx.start, ctx.elapsed)
	}
	e.rest(now + ctx.elapsed)
}

// rest schedules the core's next wake-up at 'at'. With deliveries waiting it
// queues it; with an empty inbox it only reserves its key (wakeAt, wakeSeq),
// which the next delivery or the end of a run settles.
func (e *Endpoint) rest(at time.Duration) {
	s := e.net.sim
	s.seq++
	if e.qHead < len(e.queue) {
		s.schedFn(at, s.seq, e.procFn)
		return
	}
	e.queue, e.qHead = e.queue[:0], 0
	e.wakeAt, e.wakeSeq = at, s.seq
	if !e.listed {
		e.listed = true
		s.idle = append(s.idle, e)
	}
}

// wake settles the core's reserved wake-up as a delivery arrives: if it
// precedes the running event it has already found the inbox empty and the
// core idle; otherwise it is queued under its key, behind which the delivery
// waits.
func (e *Endpoint) wake() {
	s := e.net.sim
	at, seq := e.wakeAt, e.wakeSeq
	e.wakeSeq = 0
	if s.passed(at, seq) {
		s.nEvents++
		e.processing = false
		return
	}
	s.schedFn(at, seq, e.procFn)
}

// NewInjectedContext returns a context for injecting activity into an
// endpoint from outside a handler (tests, experiment drivers, workload
// generators). The activation starts at the current virtual time and does
// not queue behind the endpoint's core.
func NewInjectedContext(net *Network, ep *Endpoint) *Context {
	return &Context{net: net, node: ep, start: net.sim.now}
}

// Context is passed to handlers; it tracks virtual CPU time consumed by the
// current activation and timestamps outgoing messages accordingly.
type Context struct {
	net     *Network
	node    *Endpoint
	start   time.Duration
	elapsed time.Duration
}

// Now returns the current virtual time as seen by the handler: activation
// start plus CPU time charged so far.
func (c *Context) Now() time.Duration { return c.start + c.elapsed }

// Rand exposes the simulation's deterministic randomness (Sim.Rand).
func (c *Context) Rand() *rand.Rand { return c.net.sim.rng }

// Elapse charges d of virtual CPU time to this activation: later sends from
// this activation depart after it, and the endpoint's next delivery is
// processed only once the charged time has passed.
func (c *Context) Elapse(d time.Duration) {
	if d > 0 {
		c.elapsed += d
	}
}

// Send transmits msg to a single destination.
func (c *Context) Send(to NodeID, msg Message) {
	c.net.send(c.node, to, msg, c.Now())
}

// Multicast emits msg once to every member of a named group (IP multicast):
// single NIC serialization, single inter-DC pipe crossing per datacenter.
func (c *Context) Multicast(group string, msg Message) {
	targets := c.net.groups[group]
	c.net.multicastSend(c.node, targets, msg, c.Now())
}

// MulticastUnicast emulates disabling IP multicast: the message is sent as
// len(group) independent unicasts, each paying serialization and pipe
// bandwidth (the "BIDL-opt-disabled" configuration of Fig 9).
func (c *Context) MulticastUnicast(group string, msg Message) {
	c.SendEach(c.net.groups[group], msg)
}

// SendEach sends msg to every target but the sender, in order, as independent
// unicasts: each copy pays egress serialization, loss and pipe bandwidth
// exactly as a Send would, but all of them take one queue entry.
func (c *Context) SendEach(targets []NodeID, msg Message) {
	n, from, depart := c.net, c.node, c.Now()
	size := msg.Size()
	slot := n.sim.fanout(from.id, msg, size, len(targets))
	for _, t := range targets {
		if t == from.id {
			continue
		}
		if dst, at, ok := n.route(from, t, msg, size, depart); ok {
			n.sim.arrive(slot, at, dst)
		}
	}
	n.sim.post(slot)
}

// After schedules fn to run on this endpoint's core d from now. The callback
// queues like any other delivery, so a busy core delays it; it is scheduled
// as an inlined delivery event (timer) and allocates nothing of its own.
func (c *Context) After(d time.Duration, fn func(*Context)) {
	c.net.sim.schedDelivery(c.Now()+d, c.node, c.node.id, timer(fn), 0)
}
