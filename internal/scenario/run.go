package scenario

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
	"github.com/bidl-framework/bidl/internal/workload"
)

// Result summarizes one scenario run.
type Result struct {
	// Submitted is the number of transactions scheduled onto the cluster.
	Submitted int
	// Summary holds the headline numbers; its window is the measurement
	// window [Warmup, Window).
	metrics.Summary
	// Events is the number of virtual events the run's simulator executed.
	Events uint64
	// Collector exposes the run's full metrics for custom tables.
	Collector *metrics.Collector
	// SafetyErr is the end-of-run consistency audit result (nil = safe).
	SafetyErr error
	// Anatomy is the latency-anatomy breakdown, present when the spec sets
	// Anatomy (or the caller supplied a tracer and set Anatomy): stage
	// waits, phase transitions, overlap ratio, and fault-window annotation.
	Anatomy *anatomy.Report
	// InterDCBytes is the bytes that crossed between datacenters
	// (Tracer.InterDCBytes), counted when the run had a tracer.
	InterDCBytes uint64
}

// RunConfig carries runtime-only knobs that are deliberately not part of
// the declarative spec.
type RunConfig struct {
	// Tracer, when non-nil, records per-transaction lifecycle spans and
	// telemetry for the run.
	Tracer *trace.Tracer
	// Observe, when non-nil, is called with the harness after the
	// simulation finishes (before the safety audit) — for tests and
	// embedders that need framework-specific state such as ledger digests.
	Observe func(Harness)
}

// Run executes the scenario and returns its result. The only error source
// is Validate: a spec that validates runs to completion (safety-audit
// failures are reported in Result.SafetyErr, not as an error).
func Run(s Scenario) (Result, error) { return RunWith(s, RunConfig{}) }

// RunWith is Run with runtime knobs. It is the one shared driver behind
// every registry experiment and every `bidl run -scenario`: compile the spec
// to its framework family's harness (see target.go), register the
// workload's clients, prepopulate accounts, arm the fault schedule, schedule
// the offered load, run past the window to drain, then summarize and
// safety-check.
func RunWith(s Scenario, rc RunConfig) (Result, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}

	// The anatomy breakdown needs lifecycle events: create a private tracer
	// when the spec requests anatomy and the caller brought none.
	tracer := rc.Tracer
	if s.Anatomy && tracer == nil {
		tracer = trace.New(trace.Options{})
		rc.Tracer = tracer
	}

	window := s.Load.Window.D()
	warmup := s.Load.Warmup.D()
	if warmup == 0 {
		warmup = window / 5
	}
	drain := s.Load.Drain.D()
	if drain == 0 {
		drain = 500 * time.Millisecond
	}

	b := s.compile(rc)
	h := b.harness

	w := s.workloadConfig(b.orgs)
	gen := workload.NewGenerator(w, h.IdentityScheme())
	ids := make([]crypto.Identity, w.NumClients)
	for i := range ids {
		ids[i] = gen.Client(i)
	}
	// The order is the contract: registering a client creates its endpoint,
	// so doing it after traffic is scheduled would change endpoint-ID
	// assignment and break run-to-run determinism; prepopulating after
	// submissions start would let transactions run against unseeded accounts.
	h.RegisterClients(ids)
	h.Prepopulate(gen.Prepopulate)
	s.armFaults(b, gen)
	submitted := ScheduleLoad(h, gen, s.Load)
	h.Run(window + drain)
	if rc.Observe != nil {
		rc.Observe(h)
	}

	col := h.Metrics()
	res := Result{
		Submitted:    submitted(),
		Summary:      col.Summarize(warmup, window),
		Events:       h.VirtualEvents(),
		Collector:    col,
		SafetyErr:    h.CheckSafety(),
		InterDCBytes: tracer.InterDCBytes(),
	}
	if s.Anatomy && tracer != nil {
		res.Anatomy = anatomy.Compute(tracer.TxEvents(), tracer.PhaseEvents(),
			anatomy.Options{Windows: s.AnatomyWindows()})
	}
	return res, nil
}

// AnatomyWindows compiles the fault schedule into anatomy fault windows,
// labeled by kind and target. Exposed so the offline report path
// (`bidl report`) can reproduce the in-process annotation from a spec.
func (s Scenario) AnatomyWindows() []anatomy.Window {
	faults := s.FaultSchedule()
	out := make([]anatomy.Window, 0, len(faults))
	for _, f := range faults {
		label := f.Kind
		switch f.Kind {
		case chaos.KindCrash:
			label = fmt.Sprintf("%s org%d/node%d", f.Kind, f.Org, f.Node)
		case chaos.KindPartition:
			label = fmt.Sprintf("%s org%d", f.Kind, f.Org)
		case chaos.KindChurn:
			// Churn rotates over every organization; it has no single target.
			label = fmt.Sprintf("%s x%d", f.Kind, f.Count)
		case chaos.KindDCOutage:
			label = fmt.Sprintf("%s dc%d", f.Kind, f.DC)
		}
		out = append(out, anatomy.Window{Label: label, Start: f.At.D(), End: f.End()})
	}
	return out
}

// ScheduleCumulative drives fn once per millisecond with the txn count owed
// at that tick, returning the total scheduled: cum(t) is the expected number
// of transactions offered in [0, t), and each tick schedules the integer
// shortfall against round(cum). The count owed is derived from the rounded
// cumulative target rather than a running float accumulator, so rounding
// error never compounds. Load shapes compile to closed-form cum functions,
// so shaping adds no per-tick state.
func ScheduleCumulative(cum func(time.Duration) float64, window time.Duration, fn func(time.Duration, int)) int {
	tick := time.Millisecond
	total := 0
	for at := time.Duration(0); at < window; at += tick {
		target := int(math.Round(cum(at + tick)))
		if n := target - total; n > 0 {
			fn(at, n)
			total = target
		}
	}
	return total
}

// diurnalAmplitude is the diurnal shape's modulation depth.
const diurnalAmplitude = 0.5

// cumulative compiles the (defaults-resolved) load shape to its closed-form
// cumulative-arrivals function. A shape's period is the load window, and
// every shape preserves mean rate: over the window (and for constant, any
// interval) cum(t) advances by Rate·Δt.
func (l LoadSpec) cumulative() func(time.Duration) float64 {
	r := l.Rate
	p := l.Window.D().Seconds()
	switch l.Shape {
	case ShapeDiurnal:
		// rate(t) = R·(1 − A·cos(2πt/P)); starts at the trough so the run
		// warms up on light load.
		// ∫₀ᵗ rate = R·t − R·A·P/(2π)·sin(2πt/P).
		a := diurnalAmplitude
		return func(t time.Duration) float64 {
			ts := t.Seconds()
			return r*ts - r*a*p/(2*math.Pi)*math.Sin(2*math.Pi*ts/p)
		}
	case ShapeBurst:
		// The first BurstDuty fraction of each period runs at M×R, the rest
		// at (1−M·d)/(1−d)×R, so each whole period offers exactly R·P.
		m, dty := l.BurstMultiplier, l.BurstDuty
		off := (1 - m*dty) / (1 - dty)
		return func(t time.Duration) float64 {
			ts := t.Seconds()
			k := math.Floor(ts / p)
			frac := ts - k*p
			burstT := math.Min(frac, dty*p)
			return k*r*p + r*(m*burstT+off*(frac-burstT))
		}
	default: // ShapeConstant
		return func(t time.Duration) float64 { return r * t.Seconds() }
	}
}

// --- spec → framework config compilation --------------------------------

// topology lowers TopologySpec onto simnet.DefaultTopology, overriding
// only explicitly set fields.
func (t TopologySpec) topology() simnet.Topology {
	topo := simnet.DefaultTopology()
	if t.InterDCGbps > 0 {
		topo.InterDCBandwidth = int64(t.InterDCGbps * float64(simnet.Gbps))
	}
	if t.Jitter != 0 {
		topo.Jitter = t.Jitter.D()
	}
	topo.LossRate = t.LossRate
	return topo
}

// lower compiles the spec groups every framework shares — protocol, seed,
// nodes, topology, costs and the block/view part of tuning —
// onto the framework's default deployment, overriding only fields the spec
// sets, so an empty spec reproduces the default deployment exactly.
func (s Scenario) lower(cfg substrate.Config) substrate.Config {
	cfg.Seed = s.EffectiveSeed()
	if s.Protocol != "" {
		cfg.Protocol = s.Protocol
	}
	if s.Nodes.Orgs > 0 {
		cfg.NumOrgs = s.Nodes.Orgs
	}
	if s.Nodes.PerOrg > 0 {
		cfg.PerOrg = s.Nodes.PerOrg
	}
	if s.Nodes.Consensus > 0 {
		cfg.NumConsensus = s.Nodes.Consensus
		cfg.F = 0 // rederive below unless the spec pins it
	}
	if s.Nodes.Faults > 0 {
		cfg.F = s.Nodes.Faults
	} else if s.Nodes.Consensus >= 4 {
		cfg.F = (s.Nodes.Consensus - 1) / 3
	}
	if s.Nodes.Datacenters > 0 {
		cfg.NumDCs = s.Nodes.Datacenters
	}
	cfg.Topology = s.Topology.topology()

	tu := s.Tuning
	if tu.BlockSize > 0 {
		cfg.BlockSize = tu.BlockSize
	}
	if tu.BlockTimeout != 0 {
		cfg.BlockTimeout = tu.BlockTimeout.D()
	}
	if tu.ViewTimeout != 0 {
		cfg.ViewTimeout = tu.ViewTimeout.D()
	}
	if s.Costs != nil {
		// Field by field: a zero cost keeps the default, as zero does
		// everywhere else in the spec.
		set, costs := reflect.ValueOf(*s.Costs), reflect.ValueOf(&cfg.Costs).Elem()
		for i := 0; i < set.NumField(); i++ {
			if !set.Field(i).IsZero() {
				costs.Field(i).Set(set.Field(i))
			}
		}
	}
	return cfg
}

// bidlConfig compiles the spec for the BIDL framework: core.DefaultConfig
// (the paper's setting A) under the shared lowering, plus the BIDL-only
// tuning.
func (s Scenario) bidlConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Config = s.lower(cfg.Config)

	tu := s.Tuning
	cfg.DisableDenylist = tu.DisableDenylist
	cfg.DisableMulticast = tu.DisableMulticast
	cfg.ConsensusOnPayload = tu.ConsensusOnPayload
	cfg.DisableSpeculation = tu.DisableSpeculation
	return cfg
}

// fabricVariant maps the framework name onto the baseline variant.
func fabricVariant(framework string) (fabric.Variant, bool) {
	switch framework {
	case FrameworkHLF:
		return fabric.HLF, true
	case FrameworkFastFabric:
		return fabric.FastFabric, true
	case FrameworkStreamChain:
		return fabric.StreamChain, true
	}
	return 0, false
}

// fabricConfig compiles the spec for a baseline framework: the variant's
// DefaultConfig under the shared lowering.
func (s Scenario) fabricConfig() fabric.Config {
	v, _ := fabricVariant(s.Framework)
	cfg := fabric.DefaultConfig(v)
	cfg.Config = s.lower(cfg.Config)
	return cfg
}

// workloadConfig compiles the workload spec. orgs is the compiled
// cluster's organization count — the generator always spans exactly the
// deployed organizations.
func (s Scenario) workloadConfig(orgs int) workload.Config {
	w := workload.DefaultConfig(orgs)
	ws := s.Workload
	if ws.Clients > 0 {
		w.NumClients = ws.Clients
	}
	if ws.Accounts > 0 {
		w.Accounts = ws.Accounts
	}
	w.ContentionRatio = ws.Contention
	w.NondetRatio = ws.Nondet
	w.ZipfS = ws.ZipfS
	w.SettlementRatio = ws.Settlement
	w.Seed = ws.Seed
	if w.Seed == 0 {
		w.Seed = s.EffectiveSeed()
	}
	// Shard-aware routing only arms for genuinely sharded runs, so the
	// single-channel generator stream stays byte-identical.
	if s.Shards > 1 {
		w.Shards = s.Shards
		w.CrossShardRatio = s.CrossShardRatio
	}
	return w
}

// Validate reports the first error in the spec or in the framework config
// it compiles to. A scenario that validates runs to completion.
func (s Scenario) Validate() error {
	s = s.WithDefaults()

	isBIDL := s.Framework == FrameworkBIDL
	if _, ok := fabricVariant(s.Framework); !ok && !isBIDL {
		return fmt.Errorf("scenario: unknown framework %q", s.Framework)
	}
	if n := s.Nodes; n.Orgs < 0 || n.PerOrg < 0 || n.Consensus < 0 || n.Faults < 0 || n.Datacenters < 0 {
		return fmt.Errorf("scenario: node counts must be >= 0 (%+v)", n)
	}
	if s.SimWorkers != 0 {
		return fmt.Errorf("scenario: SimWorkers must be 0, every run is serial (got %d)", s.SimWorkers)
	}
	if s.Shards < 0 {
		return fmt.Errorf("scenario: shards must be >= 0 (got %d)", s.Shards)
	}
	if s.Shards > 1 && !isBIDL {
		return fmt.Errorf("scenario: shards > 1 requires the bidl framework (got %q)", s.Framework)
	}
	if s.CrossShardRatio < 0 || s.CrossShardRatio > 1 {
		return fmt.Errorf("scenario: cross_shard_ratio must be in [0,1] (got %g)", s.CrossShardRatio)
	}
	if s.CrossShardRatio > 0 && s.Shards <= 1 {
		return fmt.Errorf("scenario: cross_shard_ratio %g requires shards > 1 (got shards=%d)", s.CrossShardRatio, s.Shards)
	}

	if s.Load.Window <= 0 {
		return fmt.Errorf("scenario: load.window must be > 0 (got %s)", s.Load.Window)
	}
	if s.Load.Rate < 0 {
		return fmt.Errorf("scenario: load.rate must be >= 0 (got %g)", s.Load.Rate)
	}
	if s.Load.Warmup < 0 || s.Load.Drain < 0 {
		return fmt.Errorf("scenario: load.warmup and load.drain must be >= 0")
	}
	l := s.Load.withShapeDefaults()
	switch l.Shape {
	case ShapeConstant, ShapeDiurnal, ShapeBurst:
	default:
		return fmt.Errorf("scenario: unknown load_shape %q", s.Load.Shape)
	}
	if l.Shape == ShapeBurst {
		if l.BurstDuty <= 0 || l.BurstDuty >= 1 {
			return fmt.Errorf("scenario: load.burst_duty must be in (0,1) (got %g)", l.BurstDuty)
		}
		if l.BurstMultiplier < 1 {
			return fmt.Errorf("scenario: load.burst_multiplier must be >= 1 (got %g)", l.BurstMultiplier)
		}
		if l.BurstMultiplier*l.BurstDuty >= 1 {
			return fmt.Errorf("scenario: burst_multiplier*burst_duty must be < 1 to keep the mean rate (got %g)",
				l.BurstMultiplier*l.BurstDuty)
		}
	}
	if cl := l.ClosedLoop; cl != nil && cl.MaxInFlight < 1 {
		return fmt.Errorf("scenario: closed_loop.max_in_flight must be >= 1 (got %d)", cl.MaxInFlight)
	}

	ws := s.Workload
	switch {
	case ws.Clients < 0 || ws.Accounts < 0:
		return fmt.Errorf("scenario: workload counts must be >= 0")
	case ws.Contention < 0 || ws.Contention > 1:
		return fmt.Errorf("scenario: workload.contention must be in [0,1] (got %g)", ws.Contention)
	case ws.Nondet < 0 || ws.Nondet > 1:
		return fmt.Errorf("scenario: workload.nondet must be in [0,1] (got %g)", ws.Nondet)
	case ws.ZipfS != 0 && ws.ZipfS <= 1:
		return fmt.Errorf("scenario: workload.zipf_s must be 0 (uniform) or > 1 (got %g)", ws.ZipfS)
	case ws.Settlement < 0 || ws.Settlement > 1:
		return fmt.Errorf("scenario: workload.settlement must be in [0,1] (got %g)", ws.Settlement)
	case ws.Settlement+ws.Nondet > 1:
		return fmt.Errorf("scenario: workload.settlement + workload.nondet must be <= 1 (got %g)", ws.Settlement+ws.Nondet)
	}

	switch s.Attack.Kind {
	case "", AttackLeader, AttackBroadcaster, AttackSmart:
	default:
		return fmt.Errorf("scenario: unknown attack kind %q", s.Attack.Kind)
	}
	if s.Attack.Start < 0 {
		return fmt.Errorf("scenario: attack parameters must be >= 0")
	}

	if isBIDL {
		cfg := s.bidlConfig()
		if err := s.validateFaults(cfg.Config, true); err != nil {
			return err
		}
		return cfg.Validate()
	}
	cfg := s.fabricConfig()
	if err := s.validateFaults(cfg.Config, false); err != nil {
		return err
	}
	return cfg.Validate()
}
