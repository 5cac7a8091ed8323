package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/bidl-framework/bidl"
	"github.com/bidl-framework/bidl/internal/trace"
)

// childEnv carries a childReq to a re-executed copy of this binary. One
// scenario runs per process because that is what a user's `bidl-sim
// -scenario` is: in-process repetitions ran 20 % faster than the first on a
// warm heap.
const childEnv = "BIDL_BENCH_CHILD"

// maxProcs caps GOMAXPROCS so a many-core host does not change the
// background-GC share of the measured wall time.
const maxProcs = 4

// timelineBucket is the resolution at which commit instants are read back
// from the collector's throughput timeline.
const timelineBucket = 10 * time.Microsecond

type childReq struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	// Traced attaches a bidl.Tracer; Profile, when set, is where the run's
	// CPU profile goes.
	Traced  bool   `json:"traced,omitempty"`
	Profile string `json:"profile,omitempty"`
	// SetupBudget, when positive, asks for the set-up measurement instead of
	// a scenario run: a fresh process for it too, so that the parent's heap
	// (the ladder's fixtures, in a full report) does not slow it.
	SetupBudget time.Duration `json:"setup_budget,omitempty"`
}

// simCounts is everything about a run that virtual time determines: equal
// seeds must give equal values, bit for bit, traced or not.
type simCounts struct {
	Submitted int     `json:"submitted"`
	Committed int     `json:"committed"`
	Aborted   int     `json:"aborted"`
	Events    uint64  `json:"events"`
	Samples   int     `json:"samples"` // valid commits inside [warm-up, window)
	TputTPS   float64 `json:"tput_tps"`
	MeanMs    float64 `json:"mean_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	AbortRate float64 `json:"abort_rate"`
	StallMs   float64 `json:"stall_ms"`
}

type childOut struct {
	WallS      float64            `json:"wall_s"`  // RunScenarioWith, less the Observe hook
	SimS       float64            `json:"sim_s"`   // call → Observe
	AuditS     float64            `json:"audit_s"` // Observe → return
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	LiveHeap   uint64             `json:"live_heap"`
	Sim        simCounts          `json:"sim"`
	SafetyErr  string             `json:"safety_err,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"` // traced run: simulated-side per-layer metrics
	TraceErr   string             `json:"trace_err,omitempty"`
	Setup      *value             `json:"setup,omitempty"` // answer to a SetupBudget request
}

func childMain(reqJSON string) error {
	var req childReq
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		return fmt.Errorf("child request: %w", err)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	s, err := loadWorkload(req.Workload, req.Seed, req.Scale)
	if err != nil {
		return err
	}
	var out childOut
	if req.SetupBudget > 0 {
		var setup value
		setup, err = measureSetup(s, req.SetupBudget)
		out.Setup = &setup
	} else {
		out, err = runOnce(s, req.Traced, req.Profile)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOnce executes one scenario and measures it from outside: wall time,
// allocations, live heap at the end of the simulation, and the simulated
// results. A traced run also derives the simulated-side per-layer metrics.
func runOnce(s bidl.Scenario, traced bool, profile string) (childOut, error) {
	var out childOut
	var tracer *bidl.Tracer
	if traced {
		// Sized so that no lifecycle event of the largest workload is
		// overwritten (checked below); the ring grows lazily.
		tracer = bidl.NewTracer(bidl.TraceOptions{SpanCapacity: 1 << 23})
	}
	stopProfile := func() error { return nil }
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return out, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return out, err
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}

	var blocks uint64
	var xCommitted, xAborted int
	var hookStart, hookEnd time.Time
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := bidl.RunScenarioWith(s, bidl.ScenarioRunConfig{Tracer: tracer, Observe: func(h bidl.Harness) {
		hookStart = time.Now()
		if profile == "" {
			// The whole cluster is still reachable here. Skipped under the
			// profiler, where the forced collection would be charged to
			// the scenario layer.
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			out.LiveHeap = m.HeapAlloc
		}
		blocks, xCommitted, xAborted = harnessCounts(h)
		hookEnd = time.Now()
	}})
	end := time.Now()
	runtime.ReadMemStats(&after)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return out, err
	}

	hook := hookEnd.Sub(hookStart)
	out.WallS = (end.Sub(start) - hook).Seconds()
	out.SimS = hookStart.Sub(start).Seconds()
	out.AuditS = end.Sub(hookEnd).Seconds()
	out.Mallocs = after.Mallocs - before.Mallocs
	out.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if res.SafetyErr != nil {
		out.SafetyErr = res.SafetyErr.Error()
	}

	col := res.Collector
	warmup, window := measureWindow(s)
	timeline := col.Timeline(timelineBucket, runHorizon(s))
	out.Sim = simCounts{
		Submitted: res.Submitted,
		Committed: col.NumCommitted(),
		Aborted:   col.NumAborted(),
		Events:    res.Events,
		Samples:   int(math.Round(res.Throughput * (window - warmup).Seconds())),
		TputTPS:   makespanThroughput(timeline, timelineBucket),
		MeanMs:    ms(res.AvgLatency),
		P50Ms:     ms(res.P50),
		P99Ms:     ms(res.P99),
		AbortRate: res.AbortRate,
		StallMs:   ms(longestStall(timeline[:int(window/timelineBucket)], timelineBucket, warmup)),
	}
	if traced {
		out.Layers = simulatedLayers(s, res, tracer, blocks, xCommitted, xAborted)
		out.Layers["scenario.stall_ms"] = out.Sim.StallMs
		if d := tracer.DroppedTxEvents(); d > 0 {
			out.TraceErr = fmt.Sprintf("tracer ring overwrote %d lifecycle events", d)
		}
	}
	return out, nil
}

// harnessCounts reads what only the framework-specific harness knows:
// committed block height and the cross-shard 2PC outcome counts.
func harnessCounts(h bidl.Harness) (blocks uint64, xCommitted, xAborted int) {
	switch c := h.(type) {
	case *bidl.Cluster:
		blocks = c.TotalCommitHeight()
	case *bidl.BaselineCluster:
		blocks = c.Peers[0][0].CommitHeight()
	case *bidl.ShardedHarness:
		for i := 0; i < c.NumShards(); i++ {
			blocks += c.Shard(i).TotalCommitHeight()
		}
		_, xCommitted, xAborted, _ = c.CrossShardStats()
	}
	return blocks, xCommitted, xAborted
}

// makespanThroughput is work completed per second of virtual time: valid
// commits divided by the time from the start of load to the last of them.
// Unlike a count of commits inside a fixed window it does not jump by a whole
// block when a block boundary crosses the window's edge.
func makespanThroughput(timeline []float64, width time.Duration) float64 {
	var commits float64
	last := -1
	for i, rate := range timeline {
		if rate > 0 {
			commits += rate * width.Seconds()
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	return commits / (time.Duration(last+1) * width).Seconds()
}

// longestStall returns the longest span of the throughput timeline, from
// virtual time `from` to its end, in which no valid transaction committed.
// The timeline ends with the load window, so the span is one during which
// load was still arriving: block cadence on a clean run, time without
// service under faults.
func longestStall(timeline []float64, width, from time.Duration) time.Duration {
	longest, run := 0, 0
	for i := int(from / width); i < len(timeline); i++ {
		if timeline[i] > 0 {
			run = 0
			continue
		}
		run++
		if run > longest {
			longest = run
		}
	}
	return time.Duration(longest) * width
}

// simulatedLayers derives the traced run's simulated-side metrics: counts at
// layer boundaries from the tracer's node telemetry, the latency anatomy's
// critical-path waits, and the collector's counters. All are functions of
// virtual time only.
func simulatedLayers(s bidl.Scenario, res bidl.ScenarioResult, tracer *bidl.Tracer, blocks uint64, xCommitted, xAborted int) map[string]float64 {
	col := res.Collector
	committed := float64(col.NumCommitted())
	per := func(v float64) float64 {
		if committed == 0 {
			return 0
		}
		return v / committed
	}
	m := map[string]float64{}

	// simnet: totals over every node's telemetry row; the busiest node is
	// the one with the most CPU time charged inside the measurement window.
	warmup, window := measureWindow(s)
	width := tracer.BucketWidth()
	var msgs, bytes, dropped uint64
	var maxQueue int
	var busiest time.Duration
	for id := 0; id < tracer.NumNodes(); id++ {
		var busy time.Duration
		for i, b := range tracer.NodeBuckets(id) {
			msgs += b.Delivered
			bytes += b.BytesOut
			dropped += b.Dropped
			if b.MaxQueue > maxQueue {
				maxQueue = b.MaxQueue
			}
			if at := time.Duration(i) * width; at >= warmup && at < window {
				busy += b.Busy
			}
		}
		if busy > busiest {
			busiest = busy
		}
	}
	m["simnet.events_per_txn"] = per(float64(res.Events))
	m["simnet.msgs_per_txn"] = per(float64(msgs))
	m["simnet.bytes_per_txn"] = per(float64(bytes))
	m["simnet.dropped_msgs"] = float64(dropped)
	m["simnet.max_queue_depth"] = float64(maxQueue)
	m["simnet.busiest_node_util_pct"] = 100 * float64(busiest) / float64(window-warmup)

	// Anatomy: mean wait per complete transaction attributed to each stage.
	// Per transaction the waits sum to submit → notified exactly, so the
	// means sum to the mean end-to-end latency (anatomy_e2e_ms, checked by
	// the parent).
	rep := bidl.ComputeAnatomy(tracer.TxEvents(), tracer.PhaseEvents(), bidl.AnatomyOptions{})
	wait := func(stages ...trace.Stage) float64 {
		if rep.Complete == 0 {
			return 0
		}
		var total time.Duration
		for _, st := range stages {
			total += rep.StageWait(st).Total
		}
		return ms(total) / float64(rep.Complete)
	}
	m["core.seq_wait_ms"] = wait(trace.StageSequenced)
	m["core.deliver_wait_ms"] = wait(trace.StageDelivered)
	m["core.exec_wait_ms"] = wait(trace.StageExecStart, trace.StageExecuted)
	m["core.persist_wait_ms"] = wait(trace.StagePersisted)
	m["consensus.agree_wait_ms"] = wait(trace.StageAgreed)
	m["core.notify_wait_ms"] = wait(trace.StageNotified)
	m["scenario.xprepared_wait_ms"] = wait(trace.StageXPrepared)
	m["scenario.xresolved_wait_ms"] = wait(trace.StageXResolved)
	if rep.Complete > 0 {
		m[anatomyE2E] = ms(rep.TotalE2E) / float64(rep.Complete)
	}
	m["scenario.xshard_committed"] = float64(xCommitted)
	m["scenario.xshard_aborted"] = float64(xAborted)

	if blocks > 0 {
		m["core.txns_per_block"] = committed / float64(blocks)
	}
	m["core.spec_overlap_pct"] = 100 * rep.Overlap.Ratio
	m["core.spec_success_pct"] = 100 * res.SpecSuccess
	m["core.conflicts"] = float64(col.Conflicts)
	m["ledger.mvcc_aborts_per_ktxn"] = 1000 * per(float64(col.MVCCAborts))
	m["contract.nondet_aborts_per_ktxn"] = 1000 * per(float64(col.NondetAborts))
	m["consensus.view_changes"] = float64(col.ViewChanges)
	m["core.reexecuted_per_ktxn"] = 1000 * per(float64(col.Reexecuted))
	m["core.denied_clients"] = float64(col.DeniedClients)
	m["core.retransmit_reqs"] = float64(col.RetransmitReqs)
	m["core.rejected_txns"] = float64(col.RejectedTxns)
	m["scenario.abort_rate"] = res.AbortRate
	if res.Submitted > 0 {
		m["scenario.failed_share"] = float64(res.Submitted-col.NumCommitted()) / float64(res.Submitted)
	}
	return m
}

// anatomyE2E is the child's check value for the anatomy waits; it is not a
// reported metric.
const anatomyE2E = "anatomy_e2e_ms"
