// Package bidl is the public API of the BIDL framework reproduction: a
// high-throughput, low-latency permissioned blockchain for datacenter
// networks (Qi, Chen, et al., SOSP 2021), implemented as a deterministic
// discrete-event simulation with every substrate built from scratch.
//
// The package re-exports the curated surface of the internal packages:
// cluster construction, SmallBank workload generation, the metrics
// collector, and the benchmark harness that regenerates every table and
// figure of the paper's evaluation. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	sys := bidl.NewSystem(bidl.DefaultConfig(), bidl.DefaultWorkload(50))
//	sys.SubmitRate(20000, time.Second)        // 20k txns/s for 1s
//	sys.Run(2 * time.Second)
//	fmt.Println(sys.Summary(0, time.Second))
package bidl

import (
	"fmt"
	"io"
	"time"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/bench"
	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// Curated re-exports. Aliases keep one canonical definition while giving
// users a single import.
type (
	// Config parameterizes a BIDL deployment (§3, §6 settings).
	Config = core.Config
	// Cluster is a running BIDL deployment over the simulated datacenter.
	Cluster = core.Cluster
	// Transaction is a client-signed smart-contract invocation.
	Transaction = types.Transaction
	// WorkloadConfig parameterizes the SmallBank workload (§6).
	WorkloadConfig = workload.Config
	// Generator produces signed SmallBank transactions.
	Generator = workload.Generator
	// Collector accumulates throughput/latency/abort measurements.
	Collector = metrics.Collector
	// Summary holds a run's headline metrics (Collector.Summarize).
	Summary = metrics.Summary
	// Topology describes the simulated datacenter network.
	Topology = simnet.Topology
	// BenchOptions tunes experiment runs (Workers > 1 or < 0 enables the
	// parallel sweep runner; tables are identical either way).
	BenchOptions = bench.Options
	// BenchTable is a rendered experiment result.
	BenchTable = bench.Table
	// BenchStats records one experiment's wall-clock and virtual-event cost.
	BenchStats = bench.RunStats
	// Experiment regenerates one of the paper's tables or figures.
	Experiment = bench.Experiment
	// BaselineVariant selects HLF, FastFabric, or StreamChain.
	BaselineVariant = fabric.Variant
	// BaselineConfig parameterizes an HLF/FastFabric/StreamChain cluster.
	BaselineConfig = fabric.Config
	// BaselineCluster is a running baseline deployment.
	BaselineCluster = fabric.Cluster
	// Tracer records per-transaction lifecycle spans and node/link
	// telemetry; attach one via Config.Tracer / BaselineConfig.Tracer.
	Tracer = trace.Tracer
	// TraceOptions tunes a Tracer's bucket width and ring capacities.
	TraceOptions = trace.Options
	// TraceSummaryOptions tunes Tracer.WriteSummary.
	TraceSummaryOptions = trace.SummaryOptions
	// Scenario is the declarative, JSON-round-trippable experiment spec:
	// one value describes a complete simulated deployment and run
	// (framework, protocol, topology, workload, attack, load, seed).
	Scenario = scenario.Scenario
	// ScenarioResult summarizes one scenario run.
	ScenarioResult = scenario.Result
	// ScenarioRunConfig carries runtime-only knobs (tracer, observer).
	ScenarioRunConfig = scenario.RunConfig
	// ScenarioDuration is the scenario spec's human-readable duration type
	// ("150ms"-style JSON), for building Scenario values in Go.
	ScenarioDuration = scenario.Duration
	// ScenarioFault is one entry of a Scenario's fault-injection schedule.
	ScenarioFault = scenario.FaultSpec
	// ShardedHarness runs N independently sequenced BIDL channels over one
	// shared simulation with 2PC for cross-shard transactions (DESIGN.md
	// §14); scenarios with `shards` > 1 compile to it.
	ShardedHarness = scenario.ShardedHarness
	// Harness is the framework-agnostic cluster surface the scenario
	// driver runs against; Cluster and BaselineCluster both implement it.
	Harness = scenario.Harness
	// FaultKind describes one fault-injection kind (name + summary) for
	// CLI listings.
	FaultKind = chaos.KindInfo
	// AnatomyReport is a critical-path latency decomposition computed from
	// trace events (see DESIGN.md §12).
	AnatomyReport = anatomy.Report
	// AnatomyOptions tunes anatomy computation (fault windows to annotate).
	AnatomyOptions = anatomy.Options
	// AnatomyWindow labels a time interval (e.g. a fault) for per-window
	// latency annotation in an AnatomyReport.
	AnatomyWindow = anatomy.Window
	// TraceJSONL is the decoded content of a -trace-jsonl export.
	TraceJSONL = trace.JSONLData
)

// FaultKinds returns the fault-injection taxonomy accepted by a scenario's
// `faults` array, in a stable order — the `-list-faults` surface of the
// CLIs (see DESIGN.md §11).
func FaultKinds() []FaultKind { return chaos.Kinds() }

// Protocol names for Config.Protocol.
const (
	ProtoBFTSmart = core.ProtoPBFT
	ProtoHotStuff = core.ProtoHotStuff
	ProtoZyzzyva  = core.ProtoZyzzyva
	ProtoSBFT     = core.ProtoSBFT
)

// Baseline variants.
const (
	HLF         = fabric.HLF
	FastFabric  = fabric.FastFabric
	StreamChain = fabric.StreamChain
)

// DefaultConfig returns the paper's evaluation setting A (4 consensus
// nodes, 50 organizations).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultWorkload returns the standard SmallBank workload over numOrgs
// organizations.
func DefaultWorkload(numOrgs int) WorkloadConfig { return workload.DefaultConfig(numOrgs) }

// DefaultTopology returns the paper's single-datacenter network (0.2 ms
// RTT, 40 Gbps).
func DefaultTopology() Topology { return simnet.DefaultTopology() }

// NewTracer returns a tracing sink; attach it via Config.Tracer (or
// BaselineConfig.Tracer) before building the cluster. Zero options pick
// 10 ms telemetry buckets and a 256k-event span ring.
func NewTracer(o TraceOptions) *Tracer { return trace.New(o) }

// MultiDCTopology returns the §6.4 cross-datacenter network with the given
// shared inter-datacenter bandwidth in bytes/s (see GbpsBandwidth).
func MultiDCTopology(interDCBandwidth int64) Topology {
	return simnet.MultiDCTopology(interDCBandwidth)
}

// GbpsBandwidth converts gigabits per second to the byte/s unit topologies
// use.
func GbpsBandwidth(gbps float64) int64 { return int64(gbps * float64(simnet.Gbps)) }

// DefaultBaselineConfig returns setting A for the given baseline variant.
func DefaultBaselineConfig(v fabric.Variant) BaselineConfig { return fabric.DefaultConfig(v) }

// Scenario framework names.
const (
	FrameworkBIDL        = scenario.FrameworkBIDL
	FrameworkHLF         = scenario.FrameworkHLF
	FrameworkFastFabric  = scenario.FrameworkFastFabric
	FrameworkStreamChain = scenario.FrameworkStreamChain
)

// ParseScenario decodes a user-authored scenario from JSON, rejecting
// unknown fields so typos surface as errors.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// RunScenario validates and executes a declarative scenario through the
// shared framework-agnostic driver.
func RunScenario(s Scenario) (ScenarioResult, error) { return scenario.Run(s) }

// RunScenarioWith is RunScenario with runtime knobs (tracing, observers).
func RunScenarioWith(s Scenario, rc ScenarioRunConfig) (ScenarioResult, error) {
	return scenario.RunWith(s, rc)
}

// Experiments lists every registered paper experiment.
func Experiments() []Experiment { return bench.All() }

// RunExperiment regenerates a paper artifact by ID (fig3, fig5, fig6,
// table2, table3, table4, fig7, fig8, fig9, fig10, ablation).
func RunExperiment(id string, opts BenchOptions) (*BenchTable, error) {
	e, ok := bench.Get(id)
	if !ok {
		return nil, fmt.Errorf("bidl: unknown experiment %q", id)
	}
	return e.Run(opts)
}

// MeasureExperiment runs an experiment and also reports its wall-clock
// seconds and executed virtual events.
func MeasureExperiment(id string, opts BenchOptions) (*BenchTable, BenchStats, error) {
	return bench.Measure(id, opts)
}

// ComputeAnatomy decomposes traced transaction lifecycles into a
// critical-path latency report: per-stage waits in observed pipeline order,
// end-to-end percentiles, consensus phase-transition timings, and the
// speculative-execution overlap ratio. The inputs are a Tracer's TxEvents
// and PhaseEvents — live from Tracer methods, or offline from a
// -trace-jsonl file via ValidateTraceJSONL (both yield byte-identical reports).
func ComputeAnatomy(txEvents []trace.TxEvent, phaseEvents []trace.PhaseEvent, o AnatomyOptions) *AnatomyReport {
	return anatomy.Compute(txEvents, phaseEvents, o)
}

// ValidateTraceJSONL decodes a -trace-jsonl export, rejecting unknown fields
// and malformed records (the schema is frozen; see DESIGN.md §12), and checks
// that per-transaction stage timestamps are non-negative and non-decreasing.
func ValidateTraceJSONL(r io.Reader) (*TraceJSONL, error) { return trace.ValidateJSONL(r) }

// System bundles a cluster with a workload generator and registered clients
// — the convenient entry point for applications and examples. C is the
// concrete cluster type, so framework-specific state (Cluster.Net, .Orgs,
// .TotalCommitHeight()) stays reachable.
type System[C Harness] struct {
	Cluster C
	Gen     *Generator
}

// BaselineSystem is a System over an HLF/FastFabric/StreamChain cluster.
type BaselineSystem = System[*BaselineCluster]

// NewSystem builds a BIDL cluster, registers the workload's clients, and
// seeds every node's world state with the SmallBank accounts.
func NewSystem(cfg Config, w WorkloadConfig) *System[*Cluster] {
	return newSystem(core.NewCluster(cfg), cfg.NumOrgs, w)
}

// NewBaselineSystem builds a baseline cluster with clients and seeded state.
func NewBaselineSystem(cfg BaselineConfig, w WorkloadConfig) *BaselineSystem {
	return newSystem(fabric.NewCluster(cfg), cfg.NumOrgs, w)
}

func newSystem[C Harness](c C, numOrgs int, w WorkloadConfig) *System[C] {
	w.NumOrgs = numOrgs
	gen := workload.NewGenerator(w, c.IdentityScheme())
	ids := make([]crypto.Identity, w.NumClients)
	for i := range ids {
		ids[i] = gen.Client(i)
	}
	c.RegisterClients(ids)
	c.Prepopulate(gen.Prepopulate)
	return &System[C]{Cluster: c, Gen: gen}
}

// Submit schedules transactions for client submission at virtual time at.
func (s *System[C]) Submit(at time.Duration, txns ...*Transaction) {
	s.Cluster.SubmitAt(at, txns...)
}

// SubmitRate schedules an offered load of rate txns/s over [0, window),
// returning the number of transactions scheduled — exactly
// round(rate * window_seconds), free of float-accumulator drift.
func (s *System[C]) SubmitRate(rate float64, window time.Duration) int {
	return scenario.ScheduleTicks(rate, window, func(at time.Duration, n int) {
		s.Cluster.SubmitAt(at, s.Gen.Batch(n)...)
	})
}

// Run advances the simulation to absolute virtual time t.
func (s *System[C]) Run(t time.Duration) { s.Cluster.Run(t) }

// Collector exposes the metrics collector.
func (s *System[C]) Collector() *Collector { return s.Cluster.Metrics() }

// CheckSafety verifies ledgers and states across all correct nodes.
func (s *System[C]) CheckSafety() error { return s.Cluster.CheckSafety() }

// Summary computes headline metrics over the window [from, to).
func (s *System[C]) Summary(from, to time.Duration) Summary {
	return s.Cluster.Metrics().Summarize(from, to)
}
