package simnet

import (
	"testing"
	"time"
)

// BenchmarkSimEventLoop measures the raw cost of the event queue: a resident
// set of 256 self-rescheduling closures churns through the heap, so every op
// schedules one closure into a slab slot and runs it from the heap's root, at a
// realistic queue depth. allocs/op is the headline number: none once the slab
// and the heap of 16-byte keys are warm.
func BenchmarkSimEventLoop(b *testing.B) {
	s := NewSim(1)
	const resident = 256 // steady-state queue depth
	left := b.N
	for i := 0; i < resident; i++ {
		var f func()
		f = func() {
			if left <= 0 {
				return
			}
			left--
			s.After(time.Duration(1+s.Rand().Intn(1000))*time.Microsecond, f)
		}
		s.After(time.Duration(i)*time.Microsecond, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	if got := s.Events(); got < uint64(b.N) {
		b.Fatalf("executed %d events, want >= %d", got, b.N)
	}
	b.ReportMetric(float64(s.Events())/b.Elapsed().Seconds(), "vevents/sec")
}

// BenchmarkSimBroadcast measures a multicast fan-out through the full network
// stack (NIC serialization, group lookup, per-receiver loss and latency,
// endpoint inbox processing) — the hot path of BIDL's sequencer broadcast.
// Each op is one multicast to 50 receivers: one queue entry that delivers all
// 50 from the heap's root, and 50 wake-ups that only reserve their keys, so
// Events grows by 100 and the queue by one.
func BenchmarkSimBroadcast(b *testing.B) {
	const receivers = 50
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	sink := HandlerFunc(func(*Context, NodeID, Message) {})
	sender := n.Register("sender", 0, sink)
	for i := 0; i < receivers; i++ {
		ep := n.Register("rx", 0, sink)
		n.Join("all", ep.ID())
	}
	msg := testMsg{size: 512}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewInjectedContext(n, sender)
		ctx.Multicast("all", msg)
		s.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Events())/b.Elapsed().Seconds(), "vevents/sec")
}
