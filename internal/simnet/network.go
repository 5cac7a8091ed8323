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
// serialization delay on bandwidth-limited links and for traffic accounting.
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
	from  NodeID
	msg   Message
	timer func(*Context)
}

// EndpointStats accumulates per-endpoint counters.
type EndpointStats struct {
	Received   uint64
	Dropped    uint64
	Sent       uint64
	BytesSent  uint64
	BytesRecvd uint64
	BusyTime   time.Duration
	MaxQueue   int
}

// Endpoint models a node with a single dedicated CPU core and one NIC.
// Deliveries queue FIFO and the handler processes them serially; the virtual
// CPU time a handler charges (Context.Elapse) delays subsequent deliveries,
// which is how stage bottlenecks arise in simulations.
type Endpoint struct {
	id      NodeID
	name    string
	dc      int
	part    int
	net     *Network
	handler Handler

	// queue is the inbox, consumed head-first via qHead so that draining
	// never reallocates: the backing array is reused once empty and
	// compacted in place when the consumed prefix would force a growth.
	queue      []delivery
	qHead      int
	processing bool
	down       bool

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

	stats EndpointStats
	// xdrop counts sender-side drops (loss, drop filters) charged to this
	// endpoint by each sending partition. Sender-side drop accounting is the
	// one place a remote partition touches a destination endpoint, so it
	// gets a per-sender-partition cell instead of a racy shared counter;
	// Stats folds the cells back into Dropped. Nil when single-partitioned.
	xdrop []uint64
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Name returns the human-readable name given at registration.
func (e *Endpoint) Name() string { return e.name }

// DC returns the datacenter index the endpoint lives in.
func (e *Endpoint) DC() int { return e.dc }

// Partition returns the simulation partition the endpoint executes in.
func (e *Endpoint) Partition() int { return e.part }

// Stats returns a copy of the endpoint's counters.
func (e *Endpoint) Stats() EndpointStats {
	st := e.stats
	for _, d := range e.xdrop {
		st.Dropped += d
	}
	return st
}

// SetDown marks the endpoint crashed (true) or alive (false). A crashed
// endpoint drops all deliveries — including messages already sitting in its
// inbox, which are counted as dropped when the (dead) core pops them — and
// loses its own timers. Prefer Restart over SetDown(false) to bring a node
// back: it gives the handler a chance to re-arm its periodic timers.
func (e *Endpoint) SetDown(down bool) { e.down = down }

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
		e.enqueue(delivery{from: e.id, timer: r.OnRestart})
	}
}

// netCounters is one partition's share of the network-wide traffic
// accounting, padded so concurrent partitions never share a cache line.
type netCounters struct {
	messages uint64
	bytes    uint64
	interDC  uint64
	_        [40]byte
}

// Network connects endpoints according to a Topology.
type Network struct {
	sim       *Sim
	topo      Topology
	endpoints []*Endpoint
	groups    map[string][]NodeID

	// pipeFree tracks when the shared inter-DC pipe for an ordered DC pair
	// becomes free; keyed by fromDC*4096+toDC. A non-zero InterDCBandwidth
	// forces the serial engine (the pipe is global state), so the map is
	// never touched concurrently.
	pipeFree map[int]time.Duration

	// mcPipeDone and mcSeenDC are scratch maps reused across multicastSend
	// calls so a fan-out allocates no per-call maps. They are only touched
	// under features that force the serial engine (tracing, inter-DC pipes),
	// where a single activation owns them end to end.
	mcPipeDone map[int]time.Duration
	mcSeenDC   map[int]bool

	// LatencyOverride, when non-nil, replaces the topology latency for a
	// given endpoint pair. Used by tests and by adversarial scenarios that
	// need to violate the triangle inequality on specific paths.
	LatencyOverride func(from, to NodeID) (time.Duration, bool)

	// DropFilter, when non-nil, can force-drop specific messages
	// (targeted partition/censorship scenarios). Return true to drop.
	DropFilter func(from, to NodeID, msg Message) bool

	// counters holds per-partition traffic totals, indexed by the sending
	// partition and summed on read, so parallel partitions account traffic
	// without sharing a counter.
	counters []netCounters

	// tracer, when non-nil, receives node/link telemetry from the hot
	// paths. Every hook is guarded by a nil check so disabled tracing adds
	// zero allocations; an attached tracer also zeroes the PDES lookahead,
	// pinning the run to the serial engine (trace streams are strictly
	// time-ordered).
	tracer *trace.Tracer
}

// NewNetwork creates a network over the given simulator and topology.
// Partitioning must already be configured on the simulator (SetPartitions):
// the network sizes its per-partition accounting and installs the
// conservative-PDES lookahead bound here.
func NewNetwork(sim *Sim, topo Topology) *Network {
	n := &Network{
		sim:        sim,
		topo:       topo,
		groups:     make(map[string][]NodeID),
		pipeFree:   make(map[int]time.Duration),
		mcPipeDone: make(map[int]time.Duration),
		mcSeenDC:   make(map[int]bool),
		counters:   make([]netCounters, sim.NumPartitions()),
	}
	sim.SetLookahead(n.lookaheadBound)
	return n
}

// lookaheadBound is the minimum delay separating a send from its delivery
// across any endpoint pair — the conservative-PDES window size. Features
// that either bypass the propagation-delay floor (latency overrides), keep
// global mutable state (inter-DC pipes), possibly keep adversarial state
// (drop filters), or require a single time-ordered stream (tracing) return
// zero, which pins the simulation to the serial engine.
func (n *Network) lookaheadBound() time.Duration {
	if n.tracer != nil || n.LatencyOverride != nil || n.DropFilter != nil || n.topo.InterDCBandwidth > 0 {
		return 0
	}
	return n.topo.MinLatency()
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Sim { return n.sim }

// Topology returns the network's topology parameters.
func (n *Network) Topology() Topology { return n.topo }

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

// TotalMessages reports how many messages have been accepted for delivery.
func (n *Network) TotalMessages() uint64 {
	var v uint64
	for i := range n.counters {
		v += n.counters[i].messages
	}
	return v
}

// TotalBytes reports the total bytes accepted for delivery.
func (n *Network) TotalBytes() uint64 {
	var v uint64
	for i := range n.counters {
		v += n.counters[i].bytes
	}
	return v
}

// InterDCBytes reports bytes that crossed datacenter boundaries.
func (n *Network) InterDCBytes() uint64 {
	var v uint64
	for i := range n.counters {
		v += n.counters[i].interDC
	}
	return v
}

// Register adds an endpoint in datacenter dc (partition 0) with the given
// handler and returns it. If the handler implements Starter, OnStart fires
// at time zero.
func (n *Network) Register(name string, dc int, h Handler) *Endpoint {
	return n.RegisterPart(name, dc, 0, h)
}

// RegisterPart adds an endpoint in datacenter dc, executing in simulation
// partition part. Cluster builders assign the hub partition (0) to nodes
// that share mid-run state (consensus, sequencers, clients) and spread the
// independent bulk (normal nodes, peers) over the remaining partitions.
func (n *Network) RegisterPart(name string, dc, part int, h Handler) *Endpoint {
	if part < 0 || part >= n.sim.NumPartitions() {
		panic(fmt.Sprintf("simnet: RegisterPart(%q, part=%d) outside the simulator's %d partitions (call Sim.SetPartitions before NewNetwork)",
			name, part, n.sim.NumPartitions()))
	}
	e := &Endpoint{id: NodeID(len(n.endpoints)), name: name, dc: dc, part: part, net: n, handler: h}
	e.procFn = e.processNext
	if n.sim.NumPartitions() > 1 {
		e.xdrop = make([]uint64, n.sim.NumPartitions())
	}
	n.endpoints = append(n.endpoints, e)
	if n.tracer != nil {
		n.tracer.RegisterNode(int(e.id), name, dc)
	}
	if s, ok := h.(Starter); ok {
		n.sim.schedTimer(part, 0, func() {
			if e.down {
				return
			}
			e.enqueue(delivery{from: e.id, timer: s.OnStart})
		})
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

// dropAt charges a sender-side drop of a message bound for dst observed at
// virtual time at, attributed to the sending partition fromPart.
func (n *Network) dropAt(dst *Endpoint, fromPart int, at time.Duration) {
	if fromPart == dst.part || dst.xdrop == nil {
		dst.stats.Dropped++
	} else {
		dst.xdrop[fromPart]++
	}
	if n.tracer != nil {
		n.tracer.Dropped(int(dst.id), at)
	}
}

// send schedules one unicast copy of msg from 'from' to 'to', departing at
// depart; the sender pays NIC egress serialization for it.
func (n *Network) send(from *Endpoint, to NodeID, msg Message, depart time.Duration) {
	dst := n.Endpoint(to)
	if dst == nil {
		panic(fmt.Sprintf("simnet: send to unknown endpoint %d", to))
	}
	size := msg.Size()
	ctr := &n.counters[from.part]
	ctr.messages++
	ctr.bytes += uint64(size)
	from.stats.Sent++
	from.stats.BytesSent += uint64(size)

	// NIC egress serialization.
	txDone := depart
	if n.topo.NICBandwidth > 0 {
		start := depart
		if from.egressFree > start {
			start = from.egressFree
		}
		txDone = start + time.Duration(float64(size)/float64(n.topo.NICBandwidth)*float64(time.Second))
		from.egressFree = txDone
	}

	if n.tracer != nil {
		n.tracer.Sent(int(from.id), depart, size)
		n.tracer.Wire(from.dc, dst.dc, txDone, size)
	}

	if n.DropFilter != nil && n.DropFilter(from.id, to, msg) {
		n.dropAt(dst, from.part, txDone)
		return
	}
	// Random loss, independent per receiver, drawn from the sending
	// partition's stream.
	if n.topo.LossRate > 0 && n.sim.partRng(from.part).Float64() < n.topo.LossRate {
		n.dropAt(dst, from.part, txDone)
		return
	}

	// Shared inter-DC pipe serialization.
	ready := txDone
	if from.dc != dst.dc {
		ctr.interDC += uint64(size)
		if n.topo.InterDCBandwidth > 0 {
			key := from.dc*4096 + dst.dc
			if n.pipeFree[key] > ready {
				ready = n.pipeFree[key]
			}
			ready += time.Duration(float64(size) / float64(n.topo.InterDCBandwidth) * float64(time.Second))
			n.pipeFree[key] = ready
		}
	}

	// Deliveries are inlined events (no closure): the steady-state unicast
	// path allocates nothing, pinned by TestUntracedDeliveryAllocs. The
	// latency (one jitter draw) is computed once, as on the multicast path.
	n.sim.schedDelivery(from.part, ready+n.pathLatency(from, dst), dst, from.id, msg, size)
}

// deliver lands a message at its destination at virtual time 'at': the shared
// tail of the unicast and multicast paths.
func (n *Network) deliver(dst *Endpoint, from NodeID, msg Message, at time.Duration, size int) {
	if dst.down {
		dst.stats.Dropped++
		if n.tracer != nil {
			n.tracer.Dropped(int(dst.id), at)
		}
		return
	}
	dst.stats.Received++
	dst.stats.BytesRecvd += uint64(size)
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
	txDone := depart
	if n.topo.NICBandwidth > 0 {
		start := depart
		if from.egressFree > start {
			start = from.egressFree
		}
		txDone = start + time.Duration(float64(size)/float64(n.topo.NICBandwidth)*float64(time.Second))
		from.egressFree = txDone
	}
	from.stats.Sent++
	from.stats.BytesSent += uint64(size)
	ctr := &n.counters[from.part]
	ctr.messages += uint64(len(targets))
	ctr.bytes += uint64(size)
	if n.tracer != nil {
		n.tracer.Sent(int(from.id), depart, size)
		// One wire crossing per destination datacenter (the router
		// replicates the payload), mirroring the pipe accounting below.
		// Tracing forces the serial engine, so the shared scratch map is
		// owned by this activation.
		seenDC := n.mcSeenDC
		clear(seenDC)
		for _, t := range targets {
			if dst := n.Endpoint(t); dst != nil && !seenDC[dst.dc] {
				seenDC[dst.dc] = true
				n.tracer.Wire(from.dc, dst.dc, txDone, size)
			}
		}
	}

	// Pay each inter-DC pipe once. pipeDone stays nil on the fast path
	// (unlimited inter-DC bandwidth): lookups on a nil map are legal, and
	// the shared scratch map is only touched under the serial engine.
	var pipeDone map[int]time.Duration
	if n.topo.InterDCBandwidth > 0 {
		pipeDone = n.mcPipeDone
		clear(pipeDone)
		seen := n.mcSeenDC
		clear(seen)
		for _, t := range targets {
			dst := n.Endpoint(t)
			if dst == nil || dst.dc == from.dc || seen[dst.dc] {
				continue
			}
			seen[dst.dc] = true
			key := from.dc*4096 + dst.dc
			start := txDone
			if n.pipeFree[key] > start {
				start = n.pipeFree[key]
			}
			done := start + time.Duration(float64(size)/float64(n.topo.InterDCBandwidth)*float64(time.Second))
			n.pipeFree[key] = done
			pipeDone[dst.dc] = done
			ctr.interDC += uint64(size)
		}
	} else {
		for _, t := range targets {
			dst := n.Endpoint(t)
			if dst != nil && dst.dc != from.dc {
				ctr.interDC += uint64(size)
			}
		}
	}

	for _, t := range targets {
		if t == from.id {
			continue
		}
		dst := n.Endpoint(t)
		if dst == nil {
			continue
		}
		if n.DropFilter != nil && n.DropFilter(from.id, t, msg) {
			n.dropAt(dst, from.part, txDone)
			continue
		}
		if n.topo.LossRate > 0 && n.sim.partRng(from.part).Float64() < n.topo.LossRate {
			n.dropAt(dst, from.part, txDone)
			continue
		}
		ready := txDone
		if d, ok := pipeDone[dst.dc]; ok {
			ready = d
		}
		// One inlined delivery event per receiver and nothing else.
		n.sim.schedDelivery(from.part, ready+n.pathLatency(from, dst), dst, from.id, msg, size)
	}
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
		base += time.Duration(n.sim.partRng(from.part).Int63n(int64(n.topo.Jitter)))
	}
	return base
}

// enqueue adds a delivery to the endpoint's inbox and kicks the processor.
func (e *Endpoint) enqueue(d delivery) {
	if e.qHead > 0 && len(e.queue) == cap(e.queue) {
		// The consumed prefix would force a reallocation: compact the live
		// suffix down in place instead and reuse the backing array.
		live := copy(e.queue, e.queue[e.qHead:])
		clear(e.queue[live:])
		e.queue = e.queue[:live]
		e.qHead = 0
	}
	e.queue = append(e.queue, d)
	if qlen := len(e.queue) - e.qHead; qlen > e.stats.MaxQueue {
		e.stats.MaxQueue = qlen
	}
	if e.net.tracer != nil {
		e.net.tracer.Queue(int(e.id), e.net.sim.partNow(e.part), len(e.queue)-e.qHead)
	}
	if !e.processing {
		e.processNext()
	}
}

// processNext runs the handler on the head-of-queue delivery. The virtual CPU
// time charged by the handler defers processing of the next delivery.
func (e *Endpoint) processNext() {
	if e.qHead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qHead = 0
		e.processing = false
		return
	}
	e.processing = true
	d := e.queue[e.qHead]
	e.queue[e.qHead] = delivery{} // release the message reference
	e.qHead++
	now := e.net.sim.partNow(e.part)
	ctx := &e.actCtx
	*ctx = Context{net: e.net, node: e, start: now}
	if e.down {
		// The core died with deliveries still queued: they are lost, not
		// replayed on restart, and messages count against Dropped exactly
		// like arrivals at a down endpoint (deliver). Timers vanish
		// silently — a crashed process has no pending timers to lose.
		if d.timer == nil {
			e.stats.Dropped++
			if e.net.tracer != nil {
				e.net.tracer.Dropped(int(e.id), now)
			}
		}
		e.net.sim.schedTimer(e.part, now, e.procFn)
		return
	}
	if d.timer != nil {
		d.timer(ctx)
	} else {
		e.handler.OnMessage(ctx, d.from, d.msg)
	}
	e.stats.BusyTime += ctx.elapsed
	if e.net.tracer != nil {
		e.net.tracer.Busy(int(e.id), ctx.start, ctx.elapsed)
	}
	e.net.sim.schedTimer(e.part, now+ctx.elapsed, e.procFn)
}

// NewInjectedContext returns a context for injecting activity into an
// endpoint from outside a handler (tests, experiment drivers, workload
// generators). The activation starts at the current virtual time and does
// not queue behind the endpoint's core.
func NewInjectedContext(net *Network, ep *Endpoint) *Context {
	return &Context{net: net, node: ep, start: net.sim.partNow(ep.part)}
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

// Rand exposes the deterministic randomness of the endpoint's partition
// (partition 0's stream is the historical Sim.Rand stream).
func (c *Context) Rand() *rand.Rand { return c.net.sim.partRng(c.node.part) }

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
	for _, t := range c.net.groups[group] {
		if t == c.node.id {
			continue
		}
		c.net.send(c.node, t, msg, c.Now())
	}
}

// After schedules fn to run on this endpoint's core d from now. The callback
// queues like any other delivery, so a busy core delays it.
func (c *Context) After(d time.Duration, fn func(*Context)) {
	node := c.node
	c.net.sim.schedTimer(node.part, c.Now()+d, func() {
		if node.down {
			return
		}
		node.enqueue(delivery{from: node.id, timer: fn})
	})
}
