// Package bidl is the public API of the BIDL framework reproduction: a
// high-throughput, low-latency permissioned blockchain for datacenter
// networks (Qi, Chen, et al., SOSP 2021), implemented as a deterministic
// discrete-event simulation with every substrate built from scratch.
//
// The package re-exports the curated surface of the internal packages: the
// declarative Scenario spec and its one driver, the metrics collector,
// tracing and latency anatomy, and the benchmark harness that regenerates
// every table and figure of the paper's evaluation. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start: every deployment is a declarative Scenario, run by the same
// driver as `bidl run` and every experiment.
//
//	var s bidl.Scenario // setting A: 4 consensus nodes, 50 organizations
//	s.Load.Rate = 20000 // txns/s, offered for Window and then drained
//	s.Load.Window = bidl.ScenarioDuration(time.Second)
//	res, err := bidl.RunScenario(s)
//	fmt.Println(res.Summary, res.SafetyErr)
package bidl

import (
	"io"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/bench"
	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

// Curated re-exports. Aliases keep one canonical definition while giving
// users a single import.
type (
	// Cluster is a running BIDL deployment over the simulated datacenter.
	Cluster = core.Cluster
	// Collector accumulates throughput/latency/abort measurements.
	Collector = metrics.Collector
	// Summary holds a run's headline metrics (Collector.Summarize).
	Summary = metrics.Summary
	// BenchOptions tunes experiment runs (Workers > 1 or < 0 enables the
	// parallel sweep runner; tables are identical either way).
	BenchOptions = bench.Options
	// BenchTable is a rendered experiment result.
	BenchTable = bench.Table
	// BenchStats records one experiment's wall-clock and virtual-event cost.
	BenchStats = bench.RunStats
	// Experiment regenerates one of the paper's tables or figures.
	Experiment = bench.Experiment
	// BaselineCluster is a running baseline deployment.
	BaselineCluster = fabric.Cluster
	// Tracer records per-transaction lifecycle spans and node/link
	// telemetry; attach one via ScenarioRunConfig.Tracer.
	Tracer = trace.Tracer
	// TraceOptions tunes a Tracer's bucket width and ring capacities.
	TraceOptions = trace.Options
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
// `faults` array, in a stable order — what `bidl run -list-faults` prints
// (see DESIGN.md §11).
func FaultKinds() []FaultKind { return chaos.Kinds() }

// Protocol names for Scenario.Protocol.
const (
	ProtoBFTSmart = core.ProtoPBFT
	ProtoHotStuff = core.ProtoHotStuff
	ProtoZyzzyva  = core.ProtoZyzzyva
	ProtoSBFT     = core.ProtoSBFT
)

// NewTracer returns a tracing sink; attach it via ScenarioRunConfig.Tracer.
// Zero options pick 10 ms telemetry buckets and a 256k-event span ring.
func NewTracer(o TraceOptions) *Tracer { return trace.New(o) }

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

// Gather runs independent tasks on a pool of workers goroutines (0/1 →
// serial, <0 → GOMAXPROCS) and returns their results in task order: the pool
// behind every experiment sweep and `bidl run -runs N`.
func Gather[T any](workers int, tasks []func() T) []T { return bench.Gather(workers, tasks) }

// Experiments lists every registered paper experiment.
func Experiments() []Experiment { return bench.All() }

// MeasureExperiment regenerates a paper artifact by its experiment ID (fig3,
// fig9, table4, ...; see Experiments), as `bidl bench -run` does, and reports
// its wall-clock seconds and executed virtual events.
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
