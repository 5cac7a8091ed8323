package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/bidl-framework/bidl"
)

// runCmd simulates the deployment a declarative scenario describes and
// reports headline metrics:
//
//	bidl run -scenario examples/scenario-fig5.json
//	bidl run -scenario examples/scenario-sharded.json -timeline
//	bidl run -scenario examples/scenario-chaos-crash.json -anatomy -
//	bidl run -scenario spec.json -runs 8 -j 4   # 8 seeds, 4 at a time
//
// The spec is the system; a flag picks only seeds, engine, concurrency and
// outputs (DESIGN.md §9). The spec goes through the one scenario driver once
// per seed: seeds seed..seed+runs-1 run as independent simulations on -j
// workers and print in seed order, identical to running each alone. `bidl
// bench -dump-scenarios` emits the registry's specs in the same format as a
// starting point.
func runCmd(args []string, stdout, stderr io.Writer) int {
	c := newCLI("run", stdout, stderr)
	var (
		scenPath   = c.String("scenario", "", "the declarative scenario JSON file to run (required)")
		sim        = c.simFlags(runtime.GOMAXPROCS(0), "concurrent runs with -runs > 1")
		runs       = c.Int("runs", 1, "independent runs on consecutive seeds")
		timeline   = c.Bool("timeline", false, "print a 100ms-bucket throughput timeline (single run only)")
		traceOut   = c.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto; single run only)")
		traceJSONL = c.String("trace-jsonl", "", "write raw trace events as JSON lines (single run only)")
		telemetry  = c.Bool("telemetry", false, "print per-node/per-link telemetry and slowest-transaction spans (single run only)")
		anatomyOut = c.String("anatomy", "", "write the critical-path latency anatomy report to this file (\"-\" = stdout; single run only)")
		heapCheck  = c.Int64("heap-check", 0, "GC at the end of every run, its deployment still reachable, and fail if the live heap exceeds this many bytes (0 = off)")
		listFaults = c.Bool("list-faults", false, "list the fault kinds a scenario's faults array accepts and exit")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *listFaults {
		fmt.Fprintln(stdout, "fault kinds (scenario `faults` array, see DESIGN.md §11):")
		for _, k := range bidl.FaultKinds() {
			fmt.Fprintf(stdout, "  %-12s %s\n", k.Name, k.Summary)
		}
		return 0
	}
	tracing := *traceOut != "" || *traceJSONL != "" || *telemetry || *anatomyOut != ""
	if (tracing || *timeline || *sim.cpuProf != "" || *sim.memProf != "") && *runs != 1 {
		return c.fail(2, errors.New("-timeline/-trace/-trace-jsonl/-telemetry/-anatomy/-cpuprofile/-memprofile require -runs 1"))
	}
	if *scenPath == "" {
		return c.fail(2, errors.New("-scenario FILE is required: the spec describes the deployment (`bidl bench -dump-scenarios` prints the registry's)"))
	}
	spec, err := loadScenario(*scenPath)
	if err != nil {
		return c.fail(1, err)
	}
	// The spec's own seed is the first seed unless -seed is given.
	seedSet := false
	c.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*sim.seed = spec.EffectiveSeed()
	}
	name := spec.Name
	if name == "" {
		name = *scenPath
	}
	fmt.Fprintf(stdout, "scenario %q: framework=%s\n", name, spec.WithDefaults().Framework)
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
	// One task per seed on a worker pool; results land in seed order.
	tasks := make([]func() outcome, *runs)
	for i := range tasks {
		sp := spec
		sp.Seed = *sim.seed + int64(i)
		tasks[i] = func() outcome {
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
	}
	outcomes := bidl.Gather(*sim.jobs, tasks)

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
			tr.WriteSummary(stdout)
			fmt.Fprintln(stdout)
			check(outcomes[0].res.Collector.WriteSummary(stdout))
		}
		if *anatomyOut != "" {
			// Offline, `bidl report -scenario` recovers the same fault windows
			// and `bidl report -csv` the same report as CSV.
			rep := bidl.ComputeAnatomy(tr.TxEvents(), tr.PhaseEvents(),
				bidl.AnatomyOptions{Windows: spec.AnatomyWindows()})
			if *anatomyOut == "-" {
				fmt.Fprintln(stdout)
				check(rep.Render(stdout))
			} else {
				export("wrote latency anatomy to %s", *anatomyOut, rep.Render)
			}
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
