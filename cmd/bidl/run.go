package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl"
)

// runCmd simulates one deployment and reports headline metrics — the
// playground for exploring the design space:
//
//	bidl run -orgs 25 -protocol hotstuff -rate 30000
//	bidl run -attack broadcaster -timeline      # watch the denylist engage
//	bidl run -dcs 4 -inter-gbps 1               # 4 datacenters, 1 Gbps pipes
//	bidl run -shards 4 -cross-shard 0.05        # 4 channels, 5% 2PC traffic
//	bidl run -runs 8 -j 4                       # 8 seeds, 4 at a time
//	bidl run -scenario examples/scenario-fig5.json -sim-workers 4
//
// The deployment flags only ever build a declarative scenario (DESIGN.md §9);
// -scenario FILE loads one instead and rejects them. Either way the spec goes
// through the one scenario driver once per seed: seeds seed..seed+runs-1 run as
// independent simulations on -j workers and print in seed order, identical to
// running each alone. `bidl bench -dump-scenarios` emits the registry's specs
// in the same format as a starting point.
func runCmd(args []string, stdout, stderr io.Writer) int {
	c := newCLI("run", stdout, stderr)
	var (
		orgs       = c.Int("orgs", 50, "number of organizations")
		nnPerOrg   = c.Int("nodes-per-org", 1, "normal nodes per organization")
		consensus  = c.Int("consensus", 4, "number of consensus nodes (3f+1)")
		protocol   = c.String("protocol", bidl.ProtoBFTSmart, "bft-smart|hotstuff|zyzzyva|sbft")
		rate       = c.Float64("rate", 20000, "offered load (txns/s)")
		duration   = c.Duration("duration", time.Second, "load window (virtual time)")
		contention = c.Float64("contention", 0, "contention ratio [0,1)")
		nondet     = c.Float64("nondet", 0, "non-deterministic txn ratio [0,1)")
		loss       = c.Float64("loss", 0, "packet loss rate [0,1)")
		dcs        = c.Int("dcs", 1, "number of datacenters")
		interGbps  = c.Float64("inter-gbps", 0, "shared inter-DC bandwidth (0 = unlimited)")
		attackMode = c.String("attack", "none", "none|leader|broadcaster|smart")
	)
	// Everything registered so far describes the deployment, which is what a
	// scenario file replaces.
	deployment := map[string]bool{}
	c.VisitAll(func(f *flag.Flag) { deployment[f.Name] = true })
	var (
		scenPath   = c.String("scenario", "", "run a declarative scenario JSON file in place of the deployment flags")
		sim        = c.simFlags(runtime.GOMAXPROCS(0), "concurrent runs with -runs > 1")
		crossShard = c.Float64("cross-shard", 0, "cross-shard transfer ratio [0,1] (requires shards > 1)")
		runs       = c.Int("runs", 1, "independent runs on consecutive seeds")
		timeline   = c.Bool("timeline", false, "print a 100ms-bucket throughput timeline (single run only)")
		traceOut   = c.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto; single run only)")
		traceJSONL = c.String("trace-jsonl", "", "write raw trace events as JSON lines (single run only)")
		telemetry  = c.Bool("telemetry", false, "print per-node/per-link telemetry and slowest-transaction spans (single run only)")
		anatomyOut = c.String("anatomy", "", "write the critical-path latency anatomy report to this file (\"-\" = stdout; single run only)")
		anatomyCSV = c.String("anatomy-csv", "", "also write the latency anatomy as CSV to this file (single run only)")
		heapCheck  = c.Int64("heap-check", 0, "GC at the end of every run, its deployment still reachable, and fail if the live heap exceeds this many bytes (0 = off)")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *sim.listFaults {
		printFaultKinds(stdout)
		return 0
	}
	tracing := *traceOut != "" || *traceJSONL != "" || *telemetry || *anatomyOut != "" || *anatomyCSV != ""
	if (tracing || *timeline || *sim.cpuProf != "" || *sim.memProf != "") && *runs != 1 {
		return c.fail(2, errors.New("-timeline/-trace/-trace-jsonl/-telemetry/-anatomy/-anatomy-csv/-cpuprofile/-memprofile require -runs 1"))
	}

	var spec bidl.Scenario
	if *scenPath != "" {
		seedSet, superseded := false, ""
		c.Visit(func(f *flag.Flag) {
			seedSet = seedSet || f.Name == "seed"
			if deployment[f.Name] && superseded == "" {
				superseded = f.Name
			}
		})
		if superseded != "" {
			return c.fail(2, fmt.Errorf("-%s is superseded by -scenario: the file describes the deployment", superseded))
		}
		var err error
		if spec, err = loadScenario(*scenPath); err != nil {
			return c.fail(1, err)
		}
		// The spec's own seed is the first seed unless -seed is given.
		if !seedSet {
			*sim.seed = spec.EffectiveSeed()
		}
	} else {
		spec.Protocol = *protocol
		spec.Nodes.Orgs, spec.Nodes.PerOrg = *orgs, *nnPerOrg
		spec.Nodes.Consensus, spec.Nodes.Datacenters = *consensus, *dcs
		spec.Topology.LossRate, spec.Topology.InterDCGbps = *loss, *interGbps
		spec.Workload.Contention, spec.Workload.Nondet = *contention, *nondet
		spec.Load.Rate, spec.Load.Window = *rate, bidl.ScenarioDuration(*duration)
		if *dcs > 1 {
			// 20 ms inter-DC round trips need longer protocol timers (§6.4).
			spec.Tuning.ViewTimeout = bidl.ScenarioDuration(400 * time.Millisecond)
			spec.Tuning.BlockTimeout = bidl.ScenarioDuration(25 * time.Millisecond)
		}
		switch *attackMode {
		case "none":
		case "leader":
			spec.Faults = []bidl.ScenarioFault{{Kind: *attackMode}}
		case "broadcaster", "smart":
			spec.Faults = []bidl.ScenarioFault{{Kind: *attackMode, At: bidl.ScenarioDuration(*duration / 5)}}
		default:
			return c.fail(2, fmt.Errorf("unknown attack %q", *attackMode))
		}
	}
	// These three fill in what the spec leaves unset, in either mode.
	if spec.SimWorkers == 0 {
		spec.SimWorkers = *sim.simWorkers
	}
	if spec.Shards == 0 {
		spec.Shards = *sim.shards
	}
	if spec.CrossShardRatio == 0 {
		spec.CrossShardRatio = *crossShard
	}
	if err := spec.Validate(); err != nil {
		return c.fail(2, err)
	}
	switch {
	case *scenPath != "":
		name := spec.Name
		if name == "" {
			name = *scenPath
		}
		fmt.Fprintf(stdout, "scenario %q: framework=%s\n", name, spec.WithDefaults().Framework)
	case spec.Shards > 1:
		fmt.Fprintf(stdout, "sharded deployment: %d channels, cross-shard ratio %g\n", spec.Shards, spec.CrossShardRatio)
	}
	window := spec.Load.Window.D()
	total := window + spec.Load.Drain.D()
	if spec.Load.Drain == 0 {
		total = window + 500*time.Millisecond
	}

	stopProfiles, err := c.profile(sim)
	if err != nil {
		return c.fail(1, err)
	}
	defer stopProfiles()

	type outcome struct {
		err    error
		res    bidl.ScenarioResult
		tracer *bidl.Tracer
		live   uint64 // -heap-check: the heap the run kept live at its end
	}
	runSeed := func(seed int64) outcome {
		sp := spec
		sp.Seed = seed
		var rc bidl.ScenarioRunConfig
		if tracing {
			rc.Tracer = bidl.NewTracer(bidl.TraceOptions{})
		}
		var live uint64
		if *heapCheck > 0 {
			// Measured where a run's memory peaks in what it keeps: the
			// simulation over, every node's state and index still reachable.
			rc.Observe = func(bidl.Harness) {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				live = ms.HeapAlloc
			}
		}
		res, err := bidl.RunScenarioWith(sp, rc)
		return outcome{err: err, res: res, tracer: rc.Tracer, live: live}
	}

	// Fan the seeds out to a worker pool; results land in seed order.
	outcomes := make([]outcome, *runs)
	workers := *sim.jobs
	if workers < 1 {
		workers = 1
	}
	if workers > *runs {
		workers = *runs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *runs {
					return
				}
				outcomes[i] = runSeed(*sim.seed + int64(i))
			}
		}()
	}
	wg.Wait()

	failed := false
	var sumTput float64
	for i, out := range outcomes {
		if out.err != nil {
			return c.fail(1, out.err)
		}
		if *runs > 1 {
			fmt.Fprintf(stdout, "--- seed %d ---\n", *sim.seed+int64(i))
		}
		res, col := out.res, out.res.Collector
		fmt.Fprintf(stdout, "submitted %d transactions over %v at %.0f txns/s\n", res.Submitted, window, spec.Load.Rate)
		fmt.Fprintln(stdout, res.Summary)
		fmt.Fprintf(stdout, "view_changes=%d conflicts=%d reexecuted=%d denied_clients=%d\n",
			col.ViewChanges, col.Conflicts, col.Reexecuted, col.DeniedClients)
		if res.SafetyErr != nil {
			fmt.Fprintln(stderr, "SAFETY VIOLATION:", res.SafetyErr)
			failed = true
		} else {
			fmt.Fprintln(stdout, "safety check: all correct nodes consistent")
		}
		sumTput += res.Throughput
		if *timeline {
			fmt.Fprintln(stdout, "\nthroughput timeline (100ms buckets):")
			for i, v := range col.Timeline(100*time.Millisecond, total) {
				fmt.Fprintf(stdout, "  %5.1fs %8.0f txns/s\n", float64(i)*0.1, v)
			}
		}
	}
	if *runs > 1 {
		fmt.Fprintf(stdout, "--- aggregate over %d seeds: mean throughput %.0f txns/s ---\n",
			*runs, sumTput/float64(*runs))
	}
	if tracing {
		tr := outcomes[0].tracer
		check := func(err error) {
			if err != nil {
				c.fail(1, err)
				failed = true
			}
		}
		// export writes one trace output, if asked for, and says where.
		export := func(wrote, path string, write func(io.Writer) error) {
			if path == "" {
				return
			}
			if err := writeFile(path, write); err != nil {
				check(err)
				return
			}
			fmt.Fprintf(stdout, wrote+"\n", path)
		}
		if *telemetry {
			fmt.Fprintln(stdout)
			tr.WriteSummary(stdout, bidl.TraceSummaryOptions{})
			fmt.Fprintln(stdout)
			check(outcomes[0].res.Collector.WriteSummary(stdout))
		}
		if *anatomyOut != "" || *anatomyCSV != "" {
			// Offline, `bidl report -scenario` recovers the same fault windows.
			rep := bidl.ComputeAnatomy(tr.TxEvents(), tr.PhaseEvents(),
				bidl.AnatomyOptions{Windows: spec.AnatomyWindows()})
			if *anatomyOut == "-" {
				fmt.Fprintln(stdout)
				check(rep.Render(stdout))
			} else {
				export("wrote latency anatomy to %s", *anatomyOut, rep.Render)
			}
			export("wrote latency anatomy CSV to %s", *anatomyCSV, rep.CSV)
		}
		export("wrote Chrome trace to %s (open in Perfetto / chrome://tracing)", *traceOut, tr.WriteChromeTrace)
		export("wrote trace events to %s", *traceJSONL, tr.WriteJSONL)
	}
	// The memory side of `make workload-smoke` and `make heap-smoke`: what a
	// run keeps live must fit the budget. A million-account scenario only
	// passes because prepopulation shares one copy-on-write base per generator.
	if *heapCheck > 0 {
		var most uint64
		for _, out := range outcomes {
			most = max(most, out.live)
		}
		live, limit := float64(most)/(1<<20), float64(*heapCheck)/(1<<20)
		if most > uint64(*heapCheck) {
			fmt.Fprintf(stderr, "bidl run: heap-check FAILED: live heap %.1f MiB exceeds limit %.1f MiB\n", live, limit)
			failed = true
		} else {
			fmt.Fprintf(stdout, "heap-check: live heap %.1f MiB within limit %.1f MiB\n", live, limit)
		}
	}
	if failed {
		return 1
	}
	return 0
}
