package simnet

import (
	"testing"
	"time"
)

// testMsg is a fixed-size payload for network tests.
type testMsg struct {
	size int
	tag  int
}

func (m testMsg) Size() int { return m.size }

// recorder collects every delivery with its arrival time.
type recorder struct {
	got []recorded
	// cost charged per message, to exercise CPU queueing.
	cost time.Duration
	// onMsg, if set, runs on each delivery.
	onMsg func(ctx *Context, from NodeID, msg Message)
}

type recorded struct {
	at   time.Duration
	from NodeID
	msg  Message
}

func (r *recorder) OnMessage(ctx *Context, from NodeID, msg Message) {
	r.got = append(r.got, recorded{at: ctx.Now(), from: from, msg: msg})
	if r.cost > 0 {
		ctx.Elapse(r.cost)
	}
	if r.onMsg != nil {
		r.onMsg(ctx, from, msg)
	}
}

func newTestNet(topo Topology) (*Sim, *Network) {
	s := NewSim(7)
	return s, NewNetwork(s, topo)
}

func TestUnicastLatency(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0 // isolate propagation
	s, n := newTestNet(topo)
	rx := &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	s.At(0, func() {
		ctx := &Context{net: n, node: a}
		ctx.Send(b.ID(), testMsg{size: 100})
	})
	s.Run()
	if len(rx.got) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(rx.got))
	}
	if rx.got[0].at != topo.IntraLatency {
		t.Fatalf("arrival at %v, want %v", rx.got[0].at, topo.IntraLatency)
	}
}

func TestInterDCLatency(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	s, n := newTestNet(topo)
	rx := &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 1, rx)
	s.At(0, func() {
		(&Context{net: n, node: a}).Send(b.ID(), testMsg{size: 100})
	})
	s.Run()
	if rx.got[0].at != topo.InterLatency {
		t.Fatalf("arrival at %v, want %v", rx.got[0].at, topo.InterLatency)
	}
	if n.InterDCBytes() != 100 {
		t.Fatalf("interDC bytes = %d, want 100", n.InterDCBytes())
	}
}

func TestSerializationDelay(t *testing.T) {
	topo := DefaultTopology()
	topo.IntraLatency = 0
	topo.NICBandwidth = 1000 // 1000 B/s: 500 B takes 500 ms
	s, n := newTestNet(topo)
	rx := &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	s.At(0, func() {
		ctx := &Context{net: n, node: a}
		ctx.Send(b.ID(), testMsg{size: 500, tag: 1})
		ctx.Send(b.ID(), testMsg{size: 500, tag: 2}) // queues behind the first
	})
	s.Run()
	if len(rx.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(rx.got))
	}
	if rx.got[0].at != 500*time.Millisecond {
		t.Fatalf("first arrival %v, want 500ms", rx.got[0].at)
	}
	if rx.got[1].at != 1000*time.Millisecond {
		t.Fatalf("second arrival %v, want 1000ms (egress queueing)", rx.got[1].at)
	}
}

func TestCPUQueueing(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	topo.IntraLatency = 0
	s, n := newTestNet(topo)
	rx := &recorder{cost: 10 * time.Millisecond}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	s.At(0, func() {
		ctx := &Context{net: n, node: a}
		for i := 0; i < 3; i++ {
			ctx.Send(b.ID(), testMsg{size: 10, tag: i})
		}
	})
	s.Run()
	// All arrive at t=0 but the single core serializes handler activations.
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	for i, w := range want {
		if rx.got[i].at != w {
			t.Fatalf("activation %d at %v, want %v", i, rx.got[i].at, w)
		}
	}
	if got := n.Endpoint(b.ID()).Stats().BusyTime; got != 30*time.Millisecond {
		t.Fatalf("busy time = %v, want 30ms", got)
	}
}

func TestElapseDelaysOutgoing(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	topo.IntraLatency = 0
	s, n := newTestNet(topo)
	rx := &recorder{}
	relay := n.Register("relay", 0, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		ctx.Elapse(5 * time.Millisecond)
		ctx.Send(2, msg) // rx registered third, ID 2
	}))
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	n.Register("rx", 0, rx)
	s.At(0, func() {
		(&Context{net: n, node: a}).Send(relay.ID(), testMsg{size: 1})
	})
	s.Run()
	if rx.got[0].at != 5*time.Millisecond {
		t.Fatalf("relayed arrival %v, want 5ms (Elapse before Send)", rx.got[0].at)
	}
}

func TestMulticastSingleSerialization(t *testing.T) {
	topo := DefaultTopology()
	topo.IntraLatency = 0
	topo.NICBandwidth = 1000 // 500 B takes 500 ms
	s, n := newTestNet(topo)
	var rxs []*recorder
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	for i := 0; i < 5; i++ {
		r := &recorder{}
		rxs = append(rxs, r)
		e := n.Register("rx", 0, r)
		n.Join("g", e.ID())
	}
	s.At(0, func() {
		(&Context{net: n, node: a}).Multicast("g", testMsg{size: 500})
	})
	s.Run()
	for i, r := range rxs {
		if len(r.got) != 1 || r.got[0].at != 500*time.Millisecond {
			t.Fatalf("receiver %d arrival %+v, want single delivery at 500ms", i, r.got)
		}
	}
}

func TestMulticastUnicastPaysNTimes(t *testing.T) {
	topo := DefaultTopology()
	topo.IntraLatency = 0
	topo.NICBandwidth = 1000
	s, n := newTestNet(topo)
	var last *recorder
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	for i := 0; i < 5; i++ {
		r := &recorder{}
		last = r
		e := n.Register("rx", 0, r)
		n.Join("g", e.ID())
	}
	s.At(0, func() {
		(&Context{net: n, node: a}).MulticastUnicast("g", testMsg{size: 500})
	})
	s.Run()
	if last.got[0].at != 5*500*time.Millisecond {
		t.Fatalf("last unicast copy arrived %v, want 2.5s (5 serializations)", last.got[0].at)
	}
}

func TestSharedInterDCPipe(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	topo.InterLatency = 0
	topo.IntraLatency = 0
	topo.InterDCBandwidth = 1000
	s, n := newTestNet(topo)
	rx1, rx2 := &recorder{}, &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 1, rx1)
	c := n.Register("c", 1, rx2)
	s.At(0, func() {
		ctx := &Context{net: n, node: a}
		ctx.Send(b.ID(), testMsg{size: 500})
		ctx.Send(c.ID(), testMsg{size: 500}) // shares the DC0->DC1 pipe
	})
	s.Run()
	if rx1.got[0].at != 500*time.Millisecond {
		t.Fatalf("first pipe crossing %v, want 500ms", rx1.got[0].at)
	}
	if rx2.got[0].at != 1000*time.Millisecond {
		t.Fatalf("second pipe crossing %v, want 1s (pipe shared)", rx2.got[0].at)
	}
}

func TestMulticastCrossesPipeOncePerDC(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	topo.InterLatency = 0
	topo.IntraLatency = 0
	topo.InterDCBandwidth = 1000
	s, n := newTestNet(topo)
	rx1, rx2 := &recorder{}, &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 1, rx1)
	c := n.Register("c", 1, rx2)
	n.Join("g", b.ID())
	n.Join("g", c.ID())
	s.At(0, func() {
		(&Context{net: n, node: a}).Multicast("g", testMsg{size: 500})
	})
	s.Run()
	if rx1.got[0].at != 500*time.Millisecond || rx2.got[0].at != 500*time.Millisecond {
		t.Fatalf("multicast pipe crossings at %v/%v, want both 500ms",
			rx1.got[0].at, rx2.got[0].at)
	}
	if n.InterDCBytes() != 500 {
		t.Fatalf("interDC bytes = %d, want 500 (single crossing)", n.InterDCBytes())
	}
}

func TestPacketLoss(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	topo.LossRate = 0.5
	s, n := newTestNet(topo)
	rx := &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	const total = 2000
	s.At(0, func() {
		ctx := &Context{net: n, node: a}
		for i := 0; i < total; i++ {
			ctx.Send(b.ID(), testMsg{size: 10})
		}
	})
	s.Run()
	got := len(rx.got)
	if got < total*40/100 || got > total*60/100 {
		t.Fatalf("delivered %d of %d with 50%% loss; outside [40%%,60%%]", got, total)
	}
	if dropped := n.Endpoint(b.ID()).Stats().Dropped; int(dropped)+got != total {
		t.Fatalf("dropped(%d)+delivered(%d) != %d", dropped, got, total)
	}
}

func TestDownEndpointDropsDeliveries(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	s, n := newTestNet(topo)
	rx := &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	b.SetDown(true)
	s.At(0, func() {
		(&Context{net: n, node: a}).Send(b.ID(), testMsg{size: 10})
	})
	s.Run()
	if len(rx.got) != 0 {
		t.Fatal("down endpoint processed a delivery")
	}
}

func TestTimerQueuesBehindCPU(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	topo.IntraLatency = 0
	s, n := newTestNet(topo)
	var timerAt time.Duration
	rx := &recorder{cost: 20 * time.Millisecond}
	rx.onMsg = func(ctx *Context, from NodeID, msg Message) {
		if msg.(testMsg).tag != 0 {
			return
		}
		ctx.After(5*time.Millisecond, func(c2 *Context) { timerAt = c2.Now() })
	}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	s.At(0, func() {
		ctx := &Context{net: n, node: a}
		ctx.Send(b.ID(), testMsg{size: 1, tag: 0})
		ctx.Send(b.ID(), testMsg{size: 1, tag: 1})
	})
	s.Run()
	// Timer requested at t=20ms(Elapse)→fires at 25ms, but the second message
	// occupies the core during [20ms,40ms], so the timer runs at 40ms.
	if timerAt != 40*time.Millisecond {
		t.Fatalf("timer ran at %v, want 40ms (queued behind busy core)", timerAt)
	}
}

func TestLatencyOverride(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	s, n := newTestNet(topo)
	rx := &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	n.LatencyOverride = func(from, to NodeID) (time.Duration, bool) {
		if from == a.ID() && to == b.ID() {
			return 7 * time.Millisecond, true
		}
		return 0, false
	}
	s.At(0, func() {
		(&Context{net: n, node: a}).Send(b.ID(), testMsg{size: 1})
	})
	s.Run()
	if rx.got[0].at != 7*time.Millisecond {
		t.Fatalf("arrival %v, want overridden 7ms", rx.got[0].at)
	}
}

func TestDropFilter(t *testing.T) {
	topo := DefaultTopology()
	topo.NICBandwidth = 0
	s, n := newTestNet(topo)
	rx := &recorder{}
	a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	b := n.Register("b", 0, rx)
	n.DropFilter = func(from, to NodeID, msg Message) bool { return to == b.ID() }
	s.At(0, func() {
		(&Context{net: n, node: a}).Send(b.ID(), testMsg{size: 1})
	})
	s.Run()
	if len(rx.got) != 0 {
		t.Fatal("DropFilter did not drop the message")
	}
}

func TestOnStartFires(t *testing.T) {
	s, n := newTestNet(DefaultTopology())
	st := &startRecorder{}
	n.Register("s", 0, st)
	s.Run()
	if !st.started {
		t.Fatal("OnStart did not fire")
	}
}

type startRecorder struct{ started bool }

func (s *startRecorder) OnMessage(*Context, NodeID, Message) {}
func (s *startRecorder) OnStart(*Context)                    { s.started = true }

func TestGroupJoinLeave(t *testing.T) {
	s, n := newTestNet(DefaultTopology())
	_ = s
	a := n.Register("a", 0, &recorder{})
	b := n.Register("b", 0, &recorder{})
	n.Join("g", a.ID())
	n.Join("g", b.ID())
	n.Join("g", b.ID()) // duplicate join is a no-op
	if len(n.Group("g")) != 2 {
		t.Fatalf("group size %d, want 2", len(n.Group("g")))
	}
}

// TestUnicastPipeJitterDrawsOnce pins one latency (jitter) draw per unicast
// whether or not a shared inter-DC pipe is configured: the RNG is at the same
// position after one capped cross-DC unicast as after one uncapped.
func TestUnicastPipeJitterDrawsOnce(t *testing.T) {
	next := func(interDCBandwidth int64) int64 {
		topo := DefaultTopology()
		topo.Jitter = 50 * time.Microsecond
		topo.InterDCBandwidth = interDCBandwidth
		s, n := newTestNet(topo)
		a := n.Register("a", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
		b := n.Register("b", 1, &recorder{})
		s.At(0, func() {
			(&Context{net: n, node: a}).Send(b.ID(), testMsg{size: 100})
		})
		s.Run()
		return s.Rand().Int63()
	}
	if capped, uncapped := next(Gbps), next(0); capped != uncapped {
		t.Fatalf("RNG diverges after one cross-DC unicast: capped pipe %d, uncapped %d", capped, uncapped)
	}
}
