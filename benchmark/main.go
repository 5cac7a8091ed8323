// Command benchmark is the repository's one performance benchmark: seven
// scenario workloads, each measured end to end (host cost of the simulator
// and simulated results of the system) and per layer (a microbenchmark
// ladder plus a traced, profiled run). See README.md.
//
//	bash benchmark/run.sh -seed 7                      # every workload, both passes, one report
//	bash benchmark/run.sh -seed 7 -out a.json          # … and the results as JSON
//	bash benchmark/run.sh -compare a.json b.json       # deltas against BENCHMARK.json's bounds
//	bash benchmark/run.sh --workload wide --seed 3 --seconds 10 --trace 0   # the driver's form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if req := os.Getenv(childEnv); req != "" {
		if err := childMain(req); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "measure one workload and end with the driver's one-line JSON result (default: all, as a report)")
		seed     = fs.Int64("seed", 7, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", 10, "time budget of one workload's timed runs")
		trace    = fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		scale    = fs.Float64("scale", defaultScale, "factor on every workload's load window")
		out      = fs.String("out", "", "also write the report's results to this JSON file")
		compare  = fs.Bool("compare", false, "compare two -out files against BENCHMARK.json's bounds: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be positive, -trace 0 or 1")
		return 2
	}
	p := newPlan(*seed, *scale, *seconds)
	if *workload != "" {
		return runOne(*workload, *trace == 1, p)
	}
	return runAll(p, *out)
}

// runOne is the driver's form: one workload, one pass, and as the last line
// of standard output the result object.
func runOne(workload string, traced bool, p plan) int {
	fmt.Printf("environment: %s\n", readEnvironment(p))
	var o outcome
	var err error
	if traced {
		ladder, failures := runLadder(p.Seed, ladderBenchtime(p.Seconds))
		if o, err = measureLayers(workload, p, ladder); err == nil {
			for _, f := range failures {
				o.fail("%s", f)
			}
		}
	} else {
		o, err = measureEndToEnd(workload, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printMetrics(workload, defs, o)
	o.Metrics = bare(o.Metrics)
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return reportFailures(o)
}

// bare strips the run-to-run range: the driver's metrics carry exactly a
// value and a unit.
func bare(ms map[string]value) map[string]value {
	out := make(map[string]value, len(ms))
	for name, v := range ms {
		out[name] = value{Value: v.Value, Unit: v.Unit}
	}
	return out
}

func reportFailures(o outcome) int {
	for _, f := range o.Failures {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
	}
	if !o.Correct {
		return 1
	}
	return 0
}

// results is the file -out writes and -compare reads.
type results struct {
	Env       environment                 `json:"env"`
	Workloads map[string]map[string]value `json:"workloads"`
}

// runAll is the one command that prints every metric of every workload.
func runAll(p plan, outPath string) int {
	env := readEnvironment(p)
	fmt.Printf("environment: %s\n", env)
	res := results{Env: env, Workloads: map[string]map[string]value{}}
	ladder, ladderFailures := runLadder(p.Seed, ladderBenchtime(p.Seconds))
	status := 0
	for _, f := range ladderFailures {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
		status = 1
	}
	for _, w := range workloadNames {
		e2e, err := measureEndToEnd(w, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printMetrics(w, endToEnd, e2e)
		layers, err := measureLayers(w, p, ladder)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printMetrics(w, perLayer, layers)
		if reportFailures(e2e)+reportFailures(layers) > 0 {
			status = 1
		}
		all := e2e.Metrics
		for name, v := range layers.Metrics {
			all[name] = v
		}
		res.Workloads[w] = all
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

func printMetrics(workload string, defs []metricDef, o outcome) {
	fmt.Printf("== %s: attempted %d, failed %d", workload, o.Attempted, o.Failed)
	if o.Reps > 0 {
		fmt.Printf(", %d timed runs of %.2f s (%.2f–%.2f), %d latency samples", o.Reps, o.WallS.Value, *o.WallS.Min, *o.WallS.Max, o.Samples)
	}
	fmt.Println()
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-34s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if v.Min != nil {
			fmt.Printf(" [%.4f, %.4f]", *v.Min, *v.Max)
		}
		fmt.Println()
	}
}

// environment is recorded with every result: host numbers mean nothing
// without it.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s cpu=%q commit=%s seed=%d scale=%g seconds=%g",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit, e.Seed, e.Scale, e.Seconds)
}

func readEnvironment(p plan) environment {
	procs := runtime.GOMAXPROCS(0)
	if procs > maxProcs {
		procs = maxProcs
	}
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: headCommit(), Seed: p.Seed, Scale: p.Scale, Seconds: p.Seconds,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// headCommit reads the checked-out commit from .git by hand (run.sh runs the
// binary from the repository root). The driver's checkout is not a
// repository and has none.
func headCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	sha, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown" // packed ref
	}
	return strings.TrimSpace(string(sha))
}
