package simnet

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
)

// crashRxr counts deliveries, charging CPU per message so an inbox backlog
// builds, and crashes its own endpoint from inside its handler after a fixed
// number of receipts.
type crashRxr struct {
	ep      *Endpoint
	seen    int
	crashAt int // crash after this many receipts (0 = never)
}

func (r *crashRxr) OnMessage(ctx *Context, from NodeID, msg Message) {
	r.seen++
	ctx.Elapse(50 * time.Microsecond)
	if r.crashAt > 0 && r.seen == r.crashAt {
		r.ep.SetDown(true)
	}
}

// warden restarts a crashed peer endpoint at a fixed virtual time (standing in for the chaos injector's restart path).
type warden struct {
	target *Endpoint
	at     time.Duration
}

func (w *warden) OnMessage(*Context, NodeID, Message) {}
func (w *warden) OnStart(ctx *Context) {
	ctx.After(w.at, func(*Context) { w.target.Restart() })
}

// burster fires a burst at a target on start and a second burst at a fixed
// later time.
type burster struct {
	target       NodeID
	first, later int
	laterAt      time.Duration
}

func (b *burster) OnMessage(*Context, NodeID, Message) {}
func (b *burster) OnStart(ctx *Context) {
	for i := 0; i < b.first; i++ {
		ctx.Send(b.target, testMsg{size: 64})
	}
	ctx.After(b.laterAt, func(c2 *Context) {
		for i := 0; i < b.later; i++ {
			c2.Send(b.target, testMsg{size: 64})
		}
	})
}

// runMidFlightCrash builds the regression topology: a sender in one
// datacenter bursts 100 messages at a receiver in another; the receiver
// crashes itself mid-backlog, a warden restarts it later, and a second
// burst lands after the restart. tr is attached to the network and
// returns the receipts.
func runMidFlightCrash(tr *trace.Tracer) *crashRxr {
	const first, later = 100, 50
	s := NewSim(11)
	topo := Topology{
		IntraLatency: 100 * time.Microsecond,
		InterLatency: 2 * time.Millisecond,
	}
	n := NewNetwork(s, topo)
	n.SetTracer(tr)
	rx := &crashRxr{crashAt: 40}
	b := n.Register("rx", 1, rx)
	rx.ep = b
	n.Register("warden", 1, &warden{target: b, at: 8 * time.Millisecond})
	n.Register("tx", 0, &burster{
		target: b.ID(), first: first, later: later, laterAt: 10 * time.Millisecond,
	})
	s.Run()
	return rx
}

// TestCrashMidFlightDropsEnqueued is the regression test for crash
// semantics under backlog: messages already sitting in the inbox when the
// endpoint goes down must be dropped (counted), not processed, and traffic
// sent after a Restart must flow again. Conservation: every sent message is
// either seen or dropped.
func TestCrashMidFlightDropsEnqueued(t *testing.T) {
	tr := trace.New(trace.Options{})
	rx := runMidFlightCrash(tr)
	seen, dropped := rx.seen, tracedSum(tr, rx.ep.ID(), drops)
	if seen <= 40 || seen >= 150 {
		t.Fatalf("seen = %d; want crash mid-backlog then recovery (40 < seen < 150)", seen)
	}
	if dropped == 0 {
		t.Fatal("no drops recorded: the enqueued backlog survived the crash")
	}
	if int(dropped)+seen != 150 {
		t.Fatalf("conservation violated: seen(%d) + dropped(%d) != 150", seen, dropped)
	}
	// The second burst lands entirely after the restart, so exactly the
	// first burst's tail is lost.
	if seen != 40+50 {
		t.Fatalf("seen = %d, want 90 (40 pre-crash + 50 post-restart)", seen)
	}
}

// TestTimerAcrossCrash pins what a crash does to an endpoint's timers, with a
// tracer attached: a timer that fires while the endpoint is down, or that
// waits in its inbox when it goes down, never runs and is recorded neither as
// a drop nor as a delivery; one armed before the crash that fires after
// Restart runs.
func TestTimerAcrossCrash(t *testing.T) {
	const ms = time.Millisecond
	s := NewSim(1)
	n := NewNetwork(s, DefaultTopology())
	tr := trace.New(trace.Options{})
	n.SetTracer(tr)
	var ran []string
	ep := n.Register("node", 0, HandlerFunc(func(ctx *Context, _ NodeID, _ Message) { ctx.Elapse(3 * ms) }))
	peer := n.Register("peer", 0, HandlerFunc(func(*Context, NodeID, Message) {}))
	arm := func(name string, d time.Duration) {
		NewInjectedContext(n, ep).After(d, func(*Context) { ran = append(ran, name) })
	}
	s.At(0, func() {
		arm("queued", 2*ms) // fires while the core is busy with the message below
		arm("down", 6*ms)   // fires while the endpoint is down
		arm("restarted", 9*ms)
		NewInjectedContext(n, peer).Send(ep.ID(), testMsg{size: 64})
	})
	s.At(3*ms, func() { ep.SetDown(true) })
	s.At(8*ms, ep.Restart)
	s.Run()
	if len(ran) != 1 || ran[0] != "restarted" {
		t.Fatalf("timers run: %v; want only [restarted]", ran)
	}
	delivered := tracedSum(tr, ep.ID(), func(b trace.NodeBucket) uint64 { return b.Delivered })
	if d := tracedSum(tr, ep.ID(), drops); d != 0 || delivered != 1 {
		t.Fatalf("traced %d drops and %d deliveries; want 0 and the one message", d, delivered)
	}
}
