package scenario

import (
	"math"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// Harness is the framework-agnostic cluster surface RunWith drives, in one
// order: RegisterClients, Prepopulate, faults and load scheduled, Run.
// core.Cluster (BIDL), fabric.Cluster (the HLF / FastFabric / StreamChain
// baselines) and ShardedHarness implement it, most of it through the
// deployment substrate they embed; a new framework plugs into every registry
// experiment and CLI by implementing this interface.
type Harness interface {
	// RegisterClients creates client endpoints for identities the workload
	// generator has registered with the membership scheme.
	RegisterClients(ids []crypto.Identity)
	// Prepopulate applies fn to every replica's committed world state.
	Prepopulate(fn func(*ledger.State))
	// SubmitAt schedules transactions for submission by their own clients
	// at virtual time at.
	SubmitAt(at time.Duration, txns ...*types.Transaction)
	// At schedules fn at virtual time t. Closed-loop load controllers use
	// it to observe mid-run cluster state and reschedule themselves.
	At(t time.Duration, fn func())
	// InFlight reports the cluster-wide count of submitted transactions
	// whose clients have not yet observed a commit.
	InFlight() int
	// Run advances the simulation to absolute virtual time t.
	Run(t time.Duration)
	// CheckSafety audits end-of-run ledger and state consistency.
	CheckSafety() error
	// Metrics returns the run's metrics collector.
	Metrics() *metrics.Collector
	// IdentityScheme returns the membership crypto scheme.
	IdentityScheme() crypto.Scheme
	// VirtualEvents returns the number of discrete events executed.
	VirtualEvents() uint64
}

// ScheduleLoad arms the spec's full offered-load profile on h (clients
// registered, state prepopulated) — shaped open-loop ticks, or the
// closed-loop controller when load.ClosedLoop is set — and returns a function
// reporting the total transactions submitted. For open-loop load the count is
// final immediately; for closed-loop it is only final after Run, because
// backpressure decides at run time how much of the demand curve is injected.
func ScheduleLoad(h Harness, gen *workload.Generator, load LoadSpec) func() int {
	load = load.withShapeDefaults()
	window := load.Window.D()
	cum := load.cumulative()
	if load.ClosedLoop == nil {
		n := ScheduleCumulative(cum, window, func(at time.Duration, n int) {
			h.SubmitAt(at, gen.Batch(n)...)
		})
		return func() int { return n }
	}
	return scheduleClosedLoop(h, gen, load, cum)
}

// Closed-loop poll interval: closedLoopBackoff after a poll that found room,
// doubled by each consecutive full poll up to closedLoopMaxBackoff.
const (
	closedLoopBackoff    = time.Millisecond
	closedLoopMaxBackoff = 16 * time.Millisecond
)

// scheduleClosedLoop installs a self-rescheduling controller (the BDLS-style
// auto back-off under heavy payload): at each poll it owes cum(now) −
// submitted transactions by the demand curve, but injects at most the room
// left under MaxInFlight. A full window doubles the poll interval up to
// closedLoopMaxBackoff; available room resets it.
func scheduleClosedLoop(h Harness, gen *workload.Generator, load LoadSpec, cum func(time.Duration) float64) func() int {
	cl := *load.ClosedLoop
	window := load.Window.D()
	base, maxB := closedLoopBackoff, closedLoopMaxBackoff
	submitted := 0
	var step func(now, backoff time.Duration)
	step = func(now, backoff time.Duration) {
		if now >= window {
			return
		}
		owed := int(math.Round(cum(now))) - submitted
		room := cl.MaxInFlight - h.InFlight()
		n := owed
		if n > room {
			n = room
		}
		switch {
		case n > 0:
			h.SubmitAt(now, gen.Batch(n)...)
			submitted += n
			backoff = base
		case room <= 0:
			backoff *= 2
			if backoff > maxB {
				backoff = maxB
			}
		default: // caught up with the demand curve
			backoff = base
		}
		next := now + backoff
		h.At(next, func() { step(next, backoff) })
	}
	h.At(0, func() { step(0, base) })
	return func() int { return submitted }
}
