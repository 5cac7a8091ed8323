package scenario

import (
	"fmt"
	"math"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// Harness is the framework-agnostic cluster surface the scenario driver
// runs against. core.Cluster (BIDL), fabric.Cluster (the HLF / FastFabric /
// StreamChain baselines) and ShardedHarness implement it, most of it through
// the deployment substrate they embed; a new framework plugs into every
// registry experiment and CLI by implementing this interface.
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
	// it to observe mid-run cluster state and reschedule themselves; on the
	// simulated clusters it is only legal under the serial engine once the
	// run has started.
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

// lifecycle phases enforced by Driver.
type lifecyclePhase int

const (
	phaseNew lifecyclePhase = iota
	phaseClientsRegistered
	phasePrepopulated
	phaseRunning
)

func (p lifecyclePhase) String() string {
	switch p {
	case phaseNew:
		return "new"
	case phaseClientsRegistered:
		return "clients-registered"
	case phasePrepopulated:
		return "prepopulated"
	default:
		return "running"
	}
}

// Driver wraps a Harness and enforces the lifecycle contract that was
// previously implicit in both clusters: clients must be registered before
// state is prepopulated, and both must happen before any submission or
// simulation run. (Registering a client creates its endpoint — doing so
// after traffic is scheduled would change endpoint-ID assignment and break
// run-to-run determinism; prepopulating after submissions start would let
// transactions execute against unseeded accounts.) Violations return
// errors instead of silently corrupting the run.
type Driver struct {
	h     Harness
	phase lifecyclePhase
}

// NewDriver wraps h in a fresh lifecycle.
func NewDriver(h Harness) *Driver { return &Driver{h: h} }

// Harness exposes the wrapped harness (for observers; lifecycle-relevant
// calls should go through the driver).
func (d *Driver) Harness() Harness { return d.h }

// RegisterClients is the mandatory first step.
func (d *Driver) RegisterClients(ids []crypto.Identity) error {
	if d.phase != phaseNew {
		return fmt.Errorf("scenario: RegisterClients must be the first lifecycle step (driver is %s)", d.phase)
	}
	d.h.RegisterClients(ids)
	d.phase = phaseClientsRegistered
	return nil
}

// Prepopulate seeds world state; it must follow RegisterClients and
// precede any submission.
func (d *Driver) Prepopulate(fn func(*ledger.State)) error {
	if d.phase != phaseClientsRegistered {
		return fmt.Errorf("scenario: Prepopulate must follow RegisterClients and precede submissions (driver is %s)", d.phase)
	}
	d.h.Prepopulate(fn)
	d.phase = phasePrepopulated
	return nil
}

// SubmitAt schedules transactions; clients must be registered and state
// prepopulated first.
func (d *Driver) SubmitAt(at time.Duration, txns ...*types.Transaction) error {
	if d.phase < phasePrepopulated {
		return fmt.Errorf("scenario: SubmitAt before RegisterClients+Prepopulate (driver is %s)", d.phase)
	}
	d.h.SubmitAt(at, txns...)
	return nil
}

// ScheduleRate schedules rate txns/s over window, drawing batches from
// gen, and returns the total number of transactions scheduled.
func (d *Driver) ScheduleRate(gen *workload.Generator, rate float64, window time.Duration) (int, error) {
	if d.phase < phasePrepopulated {
		return 0, fmt.Errorf("scenario: ScheduleRate before RegisterClients+Prepopulate (driver is %s)", d.phase)
	}
	n := ScheduleTicks(rate, window, func(at time.Duration, n int) {
		d.h.SubmitAt(at, gen.Batch(n)...)
	})
	return n, nil
}

// ScheduleLoad arms the spec's full offered-load profile — shaped open-loop
// ticks, or the closed-loop controller when load.ClosedLoop is set — and
// returns a function reporting the total transactions submitted. For
// open-loop load the count is final immediately; for closed-loop it is only
// final after Run, because backpressure decides at run time how much of the
// demand curve is actually injected.
func (d *Driver) ScheduleLoad(gen *workload.Generator, load LoadSpec) (func() int, error) {
	if d.phase < phasePrepopulated {
		return nil, fmt.Errorf("scenario: ScheduleLoad before RegisterClients+Prepopulate (driver is %s)", d.phase)
	}
	load = load.withShapeDefaults()
	window := load.Window.D()
	cum := load.cumulative()
	if load.ClosedLoop == nil {
		n := ScheduleCumulative(cum, window, func(at time.Duration, n int) {
			d.h.SubmitAt(at, gen.Batch(n)...)
		})
		return func() int { return n }, nil
	}
	return d.scheduleClosedLoop(gen, load, cum)
}

// scheduleClosedLoop installs a self-rescheduling controller (the BDLS-style
// auto back-off under heavy payload): at each poll it owes cum(now) −
// submitted transactions by the demand curve, but injects at most the room
// left under MaxInFlight. A full window doubles the poll interval up to
// MaxBackoff; available room resets it. The controller reads InFlight
// mid-run, so closed-loop scenarios pin the serial simulation engine
// (Scenario.effectiveSimWorkers).
func (d *Driver) scheduleClosedLoop(gen *workload.Generator, load LoadSpec, cum func(time.Duration) float64) (func() int, error) {
	cl := *load.ClosedLoop
	window := load.Window.D()
	base := cl.Backoff.D()
	maxB := cl.MaxBackoff.D()
	if maxB < base {
		maxB = base
	}
	submitted := 0
	var step func(now, backoff time.Duration)
	step = func(now, backoff time.Duration) {
		if now >= window {
			return
		}
		owed := int(math.Round(cum(now))) - submitted
		room := cl.MaxInFlight - d.h.InFlight()
		n := owed
		if n > room {
			n = room
		}
		switch {
		case n > 0:
			d.h.SubmitAt(now, gen.Batch(n)...)
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
		d.h.At(next, func() { step(next, backoff) })
	}
	d.h.At(0, func() { step(0, base) })
	return func() int { return submitted }, nil
}

// Run advances the simulation; the lifecycle must be complete.
func (d *Driver) Run(t time.Duration) error {
	if d.phase < phasePrepopulated {
		return fmt.Errorf("scenario: Run before RegisterClients+Prepopulate (driver is %s)", d.phase)
	}
	d.phase = phaseRunning
	d.h.Run(t)
	return nil
}
