package simnet

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
)

// TestUntracedDeliveryAllocs pins the allocation cost of the unicast delivery
// path with tracing disabled at zero: deliveries are inlined events (no
// closure), the handler Context is a per-endpoint scratch, the processNext
// continuation is bound once at registration, and the inbox pops by head
// index. If this number grows, either a tracing hook leaked onto the disabled
// path or a per-message closure crept back in.
func TestUntracedDeliveryAllocs(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	sink := HandlerFunc(func(*Context, NodeID, Message) {})
	src := n.Register("src", 0, sink)
	dst := n.Register("dst", 0, sink)
	var msg Message = testMsg{size: 256} // pre-boxed so the interface conversion isn't measured
	to := dst.ID()

	allocs := testing.AllocsPerRun(200, func() {
		ctx := NewInjectedContext(n, src)
		ctx.Send(to, msg)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("untraced delivery = %v allocs/op, want 0 (tracing hook on disabled path, or a per-message closure crept back?)", allocs)
	}
}

// TestTimerAllocs pins Context.After with a pre-bound callback at zero
// allocations: the timer is an inlined delivery event, not a closure around
// one.
func TestTimerAllocs(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	ep := n.Register("node", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	fired := 0
	fn := func(*Context) { fired++ }
	allocs := testing.AllocsPerRun(200, func() {
		NewInjectedContext(n, ep).After(time.Millisecond, fn)
		s.Run()
	})
	if fired != 201 {
		t.Fatalf("timer fired %d times, want 201", fired)
	}
	if allocs > 0 {
		t.Fatalf("Context.After = %v allocs/op, want 0 (a closure around the timer crept back?)", allocs)
	}
}

// TestFanoutAllocs pins a warm fan-out at zero allocations: a multicast to 50
// receivers and a SendEach to 96 each take one queue entry, whose slab slot
// and receiver buffer the next fan-out reuses.
func TestFanoutAllocs(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	got := 0
	sink := HandlerFunc(func(*Context, NodeID, Message) { got++ })
	src := n.Register("src", 0, sink)
	var each []NodeID
	for i := 0; i < 96; i++ {
		id := n.Register("rx", 0, sink).ID()
		each = append(each, id)
		if i < 50 {
			n.Join("g", id)
		}
	}
	var msg Message = testMsg{size: 256}
	for _, sendEach := range []bool{false, true} {
		got = 0
		allocs := testing.AllocsPerRun(100, func() {
			ctx := NewInjectedContext(n, src)
			if sendEach {
				ctx.SendEach(each, msg)
			} else {
				ctx.Multicast("g", msg)
			}
			s.Run()
		})
		name, want := "multicast to 50", 50
		if sendEach {
			name, want = "SendEach to 96", 96
		}
		if got != 101*want {
			t.Fatalf("%s: %d deliveries, want %d", name, got, 101*want)
		}
		if allocs > 0 {
			t.Fatalf("%s = %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestTracerHooksRecord drives traffic through a traced network and checks
// that every telemetry channel saw it: bytes out at the sender, bytes in at
// the receiver, queue depth, CPU busy time, and bytes on the wire.
func TestTracerHooksRecord(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	tr := trace.New(trace.Options{BucketWidth: 10 * time.Millisecond})

	busy := HandlerFunc(func(ctx *Context, _ NodeID, _ Message) {
		ctx.Elapse(100 * time.Microsecond)
	})
	src := n.Register("src", 0, busy)
	dst := n.Register("dst", 0, busy)

	// Attaching after registration must backfill node names.
	n.SetTracer(tr)
	if got := tr.NodeName(int(dst.ID())); got != "dst" {
		t.Fatalf("NodeName after late attach = %q, want \"dst\"", got)
	}

	var msg Message = testMsg{size: 512}
	for i := 0; i < 5; i++ {
		ctx := NewInjectedContext(n, src)
		ctx.Send(dst.ID(), msg)
	}
	s.Run()

	if got := tracedSum(tr, src.ID(), func(b trace.NodeBucket) uint64 { return b.BytesOut }); got != 5*512 {
		t.Errorf("src BytesOut = %d, want %d", got, 5*512)
	}
	if got := tracedSum(tr, dst.ID(), func(b trace.NodeBucket) uint64 { return b.BytesIn }); got != 5*512 {
		t.Errorf("dst BytesIn = %d, want %d", got, 5*512)
	}
	if got := tracedSum(tr, dst.ID(), func(b trace.NodeBucket) uint64 { return b.Delivered }); got != 5 {
		t.Errorf("dst Delivered = %d, want 5", got)
	}
	var maxQ int
	var busyTotal time.Duration
	for _, b := range tr.NodeBuckets(int(dst.ID())) {
		if b.MaxQueue > maxQ {
			maxQ = b.MaxQueue
		}
		busyTotal += b.Busy
	}
	if maxQ == 0 {
		t.Error("dst MaxQueue never recorded")
	}
	if busyTotal != 5*100*time.Microsecond {
		t.Errorf("traced busy %v, want 500µs (5 activations of 100µs)", busyTotal)
	}
}

// TestTracerRecordsDrops covers the four drop sites, the tracer being the
// only record of drops: a DropFilter, random loss, a message arriving at a
// crashed destination, and a backlog the crashed core pops (processNext).
func TestTracerRecordsDrops(t *testing.T) {
	s, n := newTestNet(DefaultTopology())
	tr := traced(n)
	src := n.Register("src", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	var dst *Endpoint
	seen, crashOn := 0, 0
	dst = n.Register("dst", 0, HandlerFunc(func(ctx *Context, _ NodeID, _ Message) {
		seen++
		ctx.Elapse(time.Millisecond) // later arrivals queue behind this one
		if seen == crashOn {
			dst.SetDown(true)
		}
	}))
	burst := func(k int) {
		ctx := NewInjectedContext(n, src)
		for i := 0; i < k; i++ {
			ctx.Send(dst.ID(), testMsg{size: 64})
		}
		s.Run()
	}
	var want uint64
	expect := func(site string, more int) {
		want += uint64(more)
		if got := tracedSum(tr, dst.ID(), drops); got != want {
			t.Fatalf("%s: traced drops = %d, want %d", site, got, want)
		}
	}

	n.DropFilter = func(from, to NodeID, m Message) bool { return true }
	burst(1)
	expect("DropFilter", 1)
	n.DropFilter = nil

	n.topo.LossRate = 0.5
	before := seen
	burst(100)
	n.topo.LossRate = 0
	if lost := 100 - (seen - before); lost == 0 || lost == 100 {
		t.Fatalf("50%% loss dropped %d of 100", lost)
	} else {
		expect("random loss", lost)
	}

	dst.SetDown(true)
	burst(1)
	expect("crashed destination", 1)
	dst.SetDown(false)

	// All four arrive while the first is processed; the second crashes the
	// core with the last two still queued.
	crashOn = seen + 2
	burst(4)
	expect("crashed backlog", 2)
	if seen != crashOn {
		t.Fatalf("the crashed core processed %d messages after the crash", seen-crashOn)
	}
}

// BenchmarkEndpointDelivery and BenchmarkEndpointDeliveryTraced bracket the
// cost of the tracing hooks on the unicast hot path. Compare allocs/op: the
// untraced variant must match the pre-tracing baseline exactly.
func BenchmarkEndpointDelivery(b *testing.B)       { benchDelivery(b, false) }
func BenchmarkEndpointDeliveryTraced(b *testing.B) { benchDelivery(b, true) }

func benchDelivery(b *testing.B, traced bool) {
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	if traced {
		n.SetTracer(trace.New(trace.Options{}))
	}
	sink := HandlerFunc(func(*Context, NodeID, Message) {})
	src := n.Register("src", 0, sink)
	dst := n.Register("dst", 0, sink)
	var msg Message = testMsg{size: 256}
	to := dst.ID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewInjectedContext(n, src)
		ctx.Send(to, msg)
		s.Run()
	}
}
