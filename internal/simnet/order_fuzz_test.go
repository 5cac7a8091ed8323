package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// FuzzEventOrder runs a drawn schedule on the event loop and, alongside, on
// refNet: a test-only copy of the loop as it was before a fan-out became one
// queue entry and an idle core stopped queueing its wake-up, with one (at,
// seq) heap entry per delivery, timer, closure and wake-up. The schedule draws
// 1–3 datacenters, NIC and pipe bandwidth, jitter, loss and a DropFilter;
// handlers that charge CPU time and send unicasts, multicasts and SendEach
// fan-outs, set After timers and arm a Timer, crash their own core, restart a
// peer or Stop the loop; crashes and restarts from events; and bounded
// RunUntil slices before Run, each followed by a restart and a step from
// outside the loop. The two delivery logs must be identical, and Now and
// Events must agree after every slice.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x05\x01\x01\x01\x40\x00\x03\x03\x00\x01\x02\x03\x04\x05\x06\x07"))
	for i := int64(1); i <= 24; i++ {
		b := make([]byte, 96)
		rand.New(rand.NewSource(i)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := drawOrderPlan(data)
		got, want := p.run(newLiveEngine), p.run(newRefNet)
		if len(got.log) != len(want.log) || len(got.marks) != len(want.marks) {
			t.Fatalf("%d deliveries and %d marks, want %d and %d\nplan %+v", len(got.log), len(got.marks), len(want.log), len(want.marks), p)
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("delivery %d is %+v, want %+v\nplan %+v", i, got.log[i], want.log[i], p)
			}
		}
		for i := range want.marks {
			if got.marks[i] != want.marks[i] {
				t.Fatalf("after slice %d (Now, Events) = %v, want %v\nplan %+v", i, got.marks[i], want.marks[i], p)
			}
		}
	})
}

// Who a log entry is from when it is not a message.
const (
	fromInject  = -1
	fromAfter   = -2
	fromTimer   = -3
	fromRestart = -4
)

// orderBudget bounds the messages and timers one schedule creates.
const orderBudget = 240

type fmsg struct{ id, size int }

func (m fmsg) Size() int { return m.size }

// orderStep is what a node does on one activation: charge CPU, do two
// things, charge CPU again.
type orderStep struct {
	before, after time.Duration
	kinds         [2]byte // drawn from orderKinds
	to            int
	delay         time.Duration
	size          int
}

// orderKinds weighs the things a step does: n nothing, s send, m multicast, e
// SendEach, a After, t Timer.Arm, c crash itself, x Stop, r restart a peer.
const orderKinds = "nsssssmmmmmmeeeeeeaaaaattttcxxrr"

type orderPlan struct {
	seed        int64
	topo        Topology
	dcs, n      int
	drop        bool
	group, each []int
	script      []orderStep
	injects     []orderAt // node starts a step with id at t
	faults      []orderAt // id 0 crashes node at t, 1 restarts it
	slices      []orderAt // RunUntil(at), then restart node and start a step with id
}

type orderAt struct {
	at       time.Duration
	node, id int
}

// drawOrderPlan decodes a schedule; bytes past the end of data read as zero.
func drawOrderPlan(data []byte) *orderPlan {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	p := &orderPlan{seed: int64(next()), n: 2 + next()%6, dcs: 1 + next()%3}
	flags := next()
	p.topo = Topology{IntraLatency: us(10 + next()%90), InterLatency: us(100 + 4*next())}
	if flags&1 != 0 {
		p.topo.NICBandwidth = 100_000_000 // 5 µs per 500 B
	}
	if flags&2 != 0 {
		p.topo.InterDCBandwidth = 50_000_000
	}
	if flags&4 != 0 {
		p.topo.Jitter = us(1 + next()%80)
	}
	if flags&8 != 0 {
		p.topo.LossRate = 0.15
	}
	p.drop = flags&16 != 0
	for _, i := range rand.New(rand.NewSource(int64(next()))).Perm(p.n) {
		if next()%4 != 0 {
			p.group = append(p.group, i)
		}
	}
	for k := next() % 6; k >= 0; k-- {
		p.each = append(p.each, next()%p.n)
	}
	elapse := []time.Duration{0, us(10), us(40), us(120)}
	for k := 4 + next()%12; k > 0; k-- {
		b := next()
		p.script = append(p.script, orderStep{
			before: elapse[b%4], after: elapse[b/4%4], kinds: [2]byte{orderKinds[next()%32], orderKinds[next()%32]}, to: next() % p.n,
			delay: us(next() * 2), size: 100 * (1 + next()%8),
		})
	}
	for k := 1 + next()%4; k > 0; k-- {
		p.injects = append(p.injects, orderAt{at: us(4 * next()), node: next() % p.n, id: next()})
	}
	for k := next() % 5; k > 0; k-- {
		p.faults = append(p.faults, orderAt{at: us(8 * next()), node: next() % p.n, id: next() % 2})
	}
	var at time.Duration
	for k := next() % 5; k > 0; k-- {
		at += us(1 + 8*next())
		p.slices = append(p.slices, orderAt{at: at, node: next() % p.n, id: next()})
	}
	return p
}

// orderEngine is one event loop under test: the simulator, or refNet.
type orderEngine interface {
	at(t time.Duration, fn func())
	crash(node int)
	restart(node int)
	inject(node int) orderCtx
	runUntil(t time.Duration)
	run()
	now() time.Duration
	events() uint64
}

// orderCtx is a node's activation in either engine.
type orderCtx interface {
	now() time.Duration
	elapse(d time.Duration)
	send(to int, m fmsg)
	multicast(m fmsg)
	sendEach(m fmsg)
	after(d time.Duration, fn func(orderCtx))
	arm(d time.Duration)
	crash()
	restart(node int)
	stop()
}

type orderEntry struct {
	at             time.Duration
	node, from, id int
}

// orderRun is one plan on one engine: the handlers' shared logic and what
// they saw.
type orderRun struct {
	p     *orderPlan
	ids   int
	log   []orderEntry
	marks [][2]uint64
}

func (p *orderPlan) run(build func(*orderRun) orderEngine) *orderRun {
	r := &orderRun{p: p}
	e := build(r)
	for _, in := range p.injects {
		in := in
		e.at(in.at, func() { r.handle(e.inject(in.node), in.node, fromInject, in.id) })
	}
	for _, fl := range p.faults {
		fl := fl
		e.at(fl.at, func() {
			if fl.id == 0 {
				e.crash(fl.node)
			} else {
				e.restart(fl.node)
			}
		})
	}
	mark := func() { r.marks = append(r.marks, [2]uint64{uint64(e.now()), e.events()}) }
	for _, sl := range p.slices {
		e.runUntil(sl.at)
		mark()
		e.restart(sl.node)
		r.handle(e.inject(sl.node), sl.node, fromInject, sl.id)
	}
	for i := 0; i < 32; i++ { // a Stop ends a Run early
		e.run()
		mark()
	}
	return r
}

// handle logs an activation of node and runs the step the activation draws.
func (r *orderRun) handle(c orderCtx, node, from, id int) {
	r.log = append(r.log, orderEntry{at: c.now(), node: node, from: from, id: id})
	st := r.p.script[(id*7+node*3+from+8)%len(r.p.script)]
	c.elapse(st.before)
	defer c.elapse(st.after)
	for _, k := range st.kinds {
		if r.ids >= orderBudget {
			return
		}
		r.ids++
		m := fmsg{id: r.ids, size: st.size}
		switch k {
		case 's':
			c.send(st.to, m)
		case 'm':
			c.multicast(m)
		case 'e':
			c.sendEach(m)
		case 'a':
			c.after(st.delay, func(c2 orderCtx) { r.handle(c2, node, fromAfter, m.id) })
		case 't':
			c.arm(st.delay)
		case 'c':
			c.crash()
		case 'x':
			c.stop()
		case 'r':
			c.restart(st.to)
		}
	}
}

func (p *orderPlan) dropped(from, to, id int) bool { return p.drop && (from+2*to+id)%5 == 0 }

// --- the simulator ----------------------------------------------------------

type liveEngine struct {
	r      *orderRun
	sim    *Sim
	net    *Network
	eps    []*Endpoint
	timers []Timer
	each   []NodeID
}

type liveNode struct {
	e   *liveEngine
	idx int
}

type liveCtx struct {
	e   *liveEngine
	c   *Context
	idx int
}

func newLiveEngine(r *orderRun) orderEngine {
	p := r.p
	e := &liveEngine{r: r, sim: NewSim(p.seed), timers: make([]Timer, p.n)}
	e.net = NewNetwork(e.sim, p.topo)
	if p.drop {
		e.net.DropFilter = func(from, to NodeID, m Message) bool { return p.dropped(int(from), int(to), m.(fmsg).id) }
	}
	for i := 0; i < p.n; i++ {
		i := i
		e.eps = append(e.eps, e.net.Register(fmt.Sprint("n", i), i%p.dcs, &liveNode{e: e, idx: i}))
		e.timers[i] = NewTimer(func(c *Context) { r.handle(liveCtx{e, c, i}, i, fromTimer, r.ids) })
	}
	for _, i := range p.group {
		e.net.Join("g", NodeID(i))
	}
	for _, i := range p.each {
		e.each = append(e.each, NodeID(i))
	}
	return e
}

func (h *liveNode) OnMessage(c *Context, from NodeID, m Message) {
	h.e.r.handle(liveCtx{h.e, c, h.idx}, h.idx, int(from), m.(fmsg).id)
}

func (h *liveNode) OnRestart(c *Context) {
	h.e.r.handle(liveCtx{h.e, c, h.idx}, h.idx, fromRestart, 0)
}

func (e *liveEngine) at(t time.Duration, fn func()) { e.sim.At(t, fn) }
func (e *liveEngine) crash(node int)                { e.eps[node].SetDown(true) }
func (e *liveEngine) restart(node int)              { e.eps[node].Restart() }
func (e *liveEngine) inject(node int) orderCtx {
	return liveCtx{e, NewInjectedContext(e.net, e.eps[node]), node}
}
func (e *liveEngine) runUntil(t time.Duration) { e.sim.RunUntil(t) }
func (e *liveEngine) run()                     { e.sim.Run() }
func (e *liveEngine) now() time.Duration       { return e.sim.Now() }
func (e *liveEngine) events() uint64           { return e.sim.Events() }

func (c liveCtx) now() time.Duration     { return c.c.Now() }
func (c liveCtx) elapse(d time.Duration) { c.c.Elapse(d) }
func (c liveCtx) send(to int, m fmsg)    { c.c.Send(NodeID(to), m) }
func (c liveCtx) multicast(m fmsg)       { c.c.Multicast("g", m) }
func (c liveCtx) sendEach(m fmsg)        { c.c.SendEach(c.e.each, m) }
func (c liveCtx) arm(d time.Duration)    { c.e.timers[c.idx].Arm(c.c, d) }
func (c liveCtx) crash()                 { c.e.eps[c.idx].SetDown(true) }
func (c liveCtx) restart(node int)       { c.e.eps[node].Restart() }
func (c liveCtx) stop()                  { c.e.sim.Stop() }
func (c liveCtx) after(d time.Duration, fn func(orderCtx)) {
	c.c.After(d, func(c2 *Context) { fn(liveCtx{c.e, c2, c.idx}) })
}

// --- the reference loop -----------------------------------------------------

// refNet is the event loop and network of simnet with one heap entry per
// event: a delivery per receiver, a wake-up after every activation.
type refNet struct {
	r        *orderRun
	topo     Topology
	rng      *rand.Rand
	q        refQueue
	clock    time.Duration
	seq, n   uint64
	stopped  bool
	eps      []*refEP
	pipeFree map[int]time.Duration
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
	dst *refEP
	d   refDelivery
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// Delivery kinds.
const (
	refMsg = iota
	refAfter
	refTimer
	refRestart
)

type refDelivery struct {
	from, kind int
	m          fmsg
	fn         func(orderCtx)
}

type refEP struct {
	net              *refNet
	idx, dc          int
	queue            []refDelivery
	processing, down bool
	life, armedLife  uint64
	armed            bool
	egressFree       time.Duration
}

type refCtx struct {
	ep             *refEP
	start, elapsed time.Duration
}

func newRefNet(r *orderRun) orderEngine {
	p := r.p
	n := &refNet{r: r, topo: p.topo, rng: rand.New(rand.NewSource(p.seed)), pipeFree: map[int]time.Duration{}}
	for i := 0; i < p.n; i++ {
		n.eps = append(n.eps, &refEP{net: n, idx: i, dc: i % p.dcs})
	}
	return n
}

func (n *refNet) sched(at time.Duration, ev refEvent) {
	n.seq++
	ev.at, ev.seq = at, n.seq
	heap.Push(&n.q, ev)
}

func (n *refNet) at(t time.Duration, fn func()) { n.sched(t, refEvent{fn: fn}) }
func (n *refNet) crash(node int) {
	n.eps[node].life++
	n.eps[node].down = true
}
func (n *refNet) restart(node int) {
	if ep := n.eps[node]; ep.down {
		ep.down = false
		ep.enqueue(refDelivery{from: node, kind: refRestart})
	}
}
func (n *refNet) inject(node int) orderCtx { return &refCtx{ep: n.eps[node], start: n.clock} }
func (n *refNet) now() time.Duration       { return n.clock }
func (n *refNet) events() uint64           { return n.n }
func (n *refNet) run()                     { n.loop(0, false) }
func (n *refNet) runUntil(t time.Duration) {
	n.loop(t, true)
	if !n.stopped && n.clock < t {
		n.clock = t
	}
}

func (n *refNet) loop(limit time.Duration, bounded bool) {
	n.stopped = false
	for len(n.q) > 0 && !n.stopped && !(bounded && n.q[0].at > limit) {
		ev := heap.Pop(&n.q).(refEvent)
		n.clock = ev.at
		n.n++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if dst := ev.dst; !dst.down {
			dst.enqueue(ev.d)
		}
	}
}

func (e *refEP) enqueue(d refDelivery) {
	e.queue = append(e.queue, d)
	if !e.processing {
		e.processNext()
	}
}

func (e *refEP) processNext() {
	n := e.net
	if len(e.queue) == 0 {
		e.processing = false
		return
	}
	e.processing = true
	d := e.queue[0]
	e.queue = e.queue[1:]
	c := &refCtx{ep: e, start: n.clock}
	if !e.down {
		switch d.kind {
		case refAfter:
			d.fn(c)
		case refTimer:
			e.armed = false
			n.r.handle(c, e.idx, fromTimer, n.r.ids)
		case refRestart:
			n.r.handle(c, e.idx, fromRestart, 0)
		default:
			n.r.handle(c, e.idx, d.from, d.m.id)
		}
	}
	n.sched(c.now(), refEvent{fn: e.processNext})
}

func (n *refNet) egress(from *refEP, size int, depart time.Duration) time.Duration {
	if n.topo.NICBandwidth <= 0 {
		return depart
	}
	from.egressFree = max(depart, from.egressFree) +
		time.Duration(float64(size)/float64(n.topo.NICBandwidth)*float64(time.Second))
	return from.egressFree
}

func (n *refNet) pipe(from, to, size int, ready time.Duration) time.Duration {
	k := from*4096 + to
	done := max(ready, n.pipeFree[k]) +
		time.Duration(float64(size)/float64(n.topo.InterDCBandwidth)*float64(time.Second))
	n.pipeFree[k] = done
	return done
}

func (n *refNet) lost(from, to *refEP, m fmsg) bool {
	return n.r.p.dropped(from.idx, to.idx, m.id) || n.topo.LossRate > 0 && n.rng.Float64() < n.topo.LossRate
}

func (n *refNet) latency(from, to *refEP) time.Duration {
	d := n.topo.latency(from.dc, to.dc)
	if n.topo.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.topo.Jitter)))
	}
	return d
}

func (n *refNet) deliverAt(at time.Duration, from, to *refEP, m fmsg) {
	n.sched(at+n.latency(from, to), refEvent{dst: to, d: refDelivery{from: from.idx, m: m}})
}

func (c *refCtx) now() time.Duration { return c.start + c.elapsed }
func (c *refCtx) elapse(d time.Duration) {
	if d > 0 {
		c.elapsed += d
	}
}

func (c *refCtx) send(to int, m fmsg) {
	n, from, dst := c.ep.net, c.ep, c.ep.net.eps[to]
	ready := n.egress(from, m.size, c.now())
	if n.lost(from, dst, m) {
		return
	}
	if from.dc != dst.dc && n.topo.InterDCBandwidth > 0 {
		ready = n.pipe(from.dc, dst.dc, m.size, ready)
	}
	n.deliverAt(ready, from, dst, m)
}

func (c *refCtx) multicast(m fmsg) {
	n, from := c.ep.net, c.ep
	txDone := n.egress(from, m.size, c.now())
	ready := map[int]time.Duration{}
	if n.topo.InterDCBandwidth > 0 {
		for _, t := range n.r.p.group {
			dst := n.eps[t]
			if _, seen := ready[dst.dc]; seen {
				continue
			}
			at := txDone
			if dst.dc != from.dc {
				at = n.pipe(from.dc, dst.dc, m.size, txDone)
			}
			ready[dst.dc] = at
		}
	}
	for _, t := range n.r.p.group {
		dst := n.eps[t]
		if t == from.idx || n.lost(from, dst, m) {
			continue
		}
		at := txDone
		if d, ok := ready[dst.dc]; ok {
			at = d
		}
		n.deliverAt(at, from, dst, m)
	}
}

func (c *refCtx) sendEach(m fmsg) {
	for _, t := range c.ep.net.r.p.each {
		if t != c.ep.idx {
			c.send(t, m)
		}
	}
}

func (c *refCtx) after(d time.Duration, fn func(orderCtx)) {
	c.ep.net.sched(c.now()+d, refEvent{dst: c.ep, d: refDelivery{from: c.ep.idx, kind: refAfter, fn: fn}})
}

func (c *refCtx) arm(d time.Duration) {
	e := c.ep
	if e.armed && e.armedLife == e.life {
		return
	}
	e.armed, e.armedLife = true, e.life
	e.net.sched(c.now()+d, refEvent{dst: e, d: refDelivery{from: e.idx, kind: refTimer}})
}

func (c *refCtx) crash()           { c.ep.net.crash(c.ep.idx) }
func (c *refCtx) restart(node int) { c.ep.net.restart(node) }
func (c *refCtx) stop()            { c.ep.net.stopped = true }
