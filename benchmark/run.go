package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/bidl-framework/bidl"
)

// plan sizes one measurement. The contract's --seconds sets it for a real
// run; the smoke test shrinks every part.
type plan struct {
	Seed    int64
	Scale   float64
	Seconds float64 // time budget of the timed children; the ladder's rungs get Seconds/200 each
	MinReps int     // timed children per workload, however long they take
	// SetupBudget is how long one workload's set-up runs may take in total.
	// A set-up is milliseconds, so 1.5 s is hundreds of runs: their median
	// moves far less between invocations than that of a hundred.
	SetupBudget time.Duration
	WorkDir     string // CPU profiles go here
}

func newPlan(seed int64, scale, seconds float64) plan {
	return plan{Seed: seed, Scale: scale, Seconds: seconds, MinReps: 3,
		SetupBudget: 1500 * time.Millisecond, WorkDir: filepath.Join(".bench_build", "run")}
}

// value is one reported metric. Min and Max span the timed children when
// the metric was measured once per child (for setup_s they span the medians
// of five slices of its runs); -compare reads them as the run-to-run range.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

// outcome is what one workload measurement yields: the four keys of the
// contract's result line plus, for the human-readable report, the size of
// the measurement and the checks that failed.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Reps      int              `json:"-"`
	WallS     *value           `json:"-"` // per timed child; printed beside host_us_per_txn
	Samples   int              `json:"-"`
	Failures  []string         `json:"-"`
}

func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// absorb records a child's safety audit and loss counts.
func (o *outcome) absorb(workload, which string, c childOut) {
	o.Attempted = c.Sim.Submitted
	o.Failed = c.Sim.Submitted - c.Sim.Committed
	if c.SafetyErr != "" {
		o.Failed = c.Sim.Submitted
		o.fail("%s: %s: safety audit: %s", workload, which, c.SafetyErr)
	}
	if c.Sim.Submitted < 1 {
		o.fail("%s: %s: nothing was submitted", workload, which)
	}
}

// runChild re-executes this binary for one scenario run and returns what it
// measured plus the child's peak resident set.
func runChild(req childReq) (childOut, float64, error) {
	var out childOut
	exe, err := os.Executable()
	if err != nil {
		return out, 0, err
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(reqJSON))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return out, 0, fmt.Errorf("%s: child run: %w", req.Workload, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, 0, fmt.Errorf("%s: child output: %w", req.Workload, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return out, rssMB, nil
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func median(vs []float64) float64 {
	s := sorted(vs)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// spread reports a per-child measurement as median with its range.
func spread(unit string, vs []float64) value {
	s := sorted(vs)
	return value{Value: median(s), Unit: unit, Min: &s[0], Max: &s[len(s)-1]}
}

// measureEndToEnd produces the end-to-end metrics of one workload: a child
// that measures set-up cost, then timed untraced children, one at a time,
// until the time budget is spent (at least p.MinReps).
func measureEndToEnd(workload string, p plan) (outcome, error) {
	o := outcome{Correct: true, Metrics: map[string]value{}}
	setup, _, err := runChild(childReq{Workload: workload, Seed: p.Seed, Scale: p.Scale, SetupBudget: p.SetupBudget})
	if err != nil {
		return o, err
	}

	var reps []childOut
	began := time.Now()
	for len(reps) < p.MinReps || time.Since(began).Seconds()+reps[len(reps)-1].WallS <= p.Seconds {
		c, _, err := runChild(childReq{Workload: workload, Seed: p.Seed, Scale: p.Scale})
		if err != nil {
			return o, err
		}
		reps = append(reps, c)
	}
	first := reps[0]
	o.Reps, o.Samples = len(reps), first.Sim.Samples
	o.absorb(workload, "timed run", first)
	for i, c := range reps[1:] {
		if c.Sim != first.Sim {
			o.fail("%s: timed run %d differs from run 1 in simulated results: %+v vs %+v", workload, i+2, c.Sim, first.Sim)
		}
		if c.SafetyErr != first.SafetyErr {
			o.fail("%s: timed run %d: safety audit: %q", workload, i+2, c.SafetyErr)
		}
	}
	if first.Sim.Committed == 0 {
		o.fail("%s: no transaction committed", workload)
		return o, nil
	}

	committed := float64(first.Sim.Committed)
	per := func(f func(childOut) float64) []float64 {
		vs := make([]float64, len(reps))
		for i, c := range reps {
			vs[i] = f(c)
		}
		return vs
	}
	o.Metrics["host_us_per_txn"] = spread("us", per(func(c childOut) float64 { return c.WallS * 1e6 / committed }))
	o.Metrics["setup_s"] = *setup.Setup
	o.Metrics["allocs_per_txn"] = spread("count", per(func(c childOut) float64 { return float64(c.Mallocs) / committed }))
	o.Metrics["alloc_kb_per_txn"] = spread("KB", per(func(c childOut) float64 { return float64(c.AllocBytes) / 1024 / committed }))
	o.Metrics["live_heap_mb"] = spread("MB", per(func(c childOut) float64 { return float64(c.LiveHeap) / (1 << 20) }))
	sim := first.Sim
	o.Metrics["sim_tput_tps"] = value{Value: sim.TputTPS, Unit: "tx/s"}
	o.Metrics["sim_mean_ms"] = value{Value: sim.MeanMs, Unit: "ms"}
	o.Metrics["sim_p50_ms"] = value{Value: sim.P50Ms, Unit: "ms"}
	o.Metrics["sim_p99_ms"] = value{Value: sim.P99Ms, Unit: "ms"}
	o.Metrics["sim_valid_share"] = value{Value: 1 - sim.AbortRate, Unit: "ratio"}
	o.Metrics["committed_share"] = value{Value: committed / float64(sim.Submitted), Unit: "ratio"}
	wall := spread("s", per(func(c childOut) float64 { return c.WallS }))
	o.WallS = &wall
	return o, nil
}

// measureSetup times the workload's fixed per-run cost: runs of setupSpec,
// repeated in this process until budget is spent (at least 5), reported as
// their median. Transaction generation and signing for the real window are
// not in it; they stay in host_us_per_txn.
func measureSetup(s bidl.Scenario, budget time.Duration) (value, error) {
	spec := setupSpec(s)
	var walls []float64
	began := time.Now()
	for len(walls) < 5 || time.Since(began) < budget {
		start := time.Now()
		res, err := bidl.RunScenario(spec)
		if err != nil {
			return value{}, fmt.Errorf("set-up run: %w", err)
		}
		if res.SafetyErr != nil {
			return value{}, fmt.Errorf("set-up run: safety audit: %w", res.SafetyErr)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	// The range is that of the medians of five consecutive fifths of the
	// runs: how far the reported median itself moves within one measurement.
	fifths := make([]float64, 5)
	for i := range fifths {
		fifths[i] = median(walls[i*len(walls)/5 : (i+1)*len(walls)/5])
	}
	v := spread("s", fifths)
	v.Value = median(walls)
	return v, nil
}

// measureLayers produces the per-layer metrics of one workload: one
// untraced child as the reference, one child with a tracer and the CPU
// profiler attached, and the ladder.
func measureLayers(workload string, p plan, ladder map[string]value) (outcome, error) {
	o := outcome{Correct: true, Metrics: map[string]value{}}
	if err := os.MkdirAll(p.WorkDir, 0o755); err != nil {
		return o, err
	}
	plain, _, err := runChild(childReq{Workload: workload, Seed: p.Seed, Scale: p.Scale})
	if err != nil {
		return o, err
	}
	o.absorb(workload, "untraced run", plain)
	profile := filepath.Join(p.WorkDir, workload+".cpu.pprof")
	traced, rssMB, err := runChild(childReq{Workload: workload, Seed: p.Seed, Scale: p.Scale, Traced: true, Profile: profile})
	if err != nil {
		return o, err
	}
	o.absorb(workload, "traced run", traced)
	if traced.Sim != plain.Sim {
		o.fail("%s: traced run differs from untraced in simulated results: %+v vs %+v", workload, traced.Sim, plain.Sim)
	}
	if traced.TraceErr != "" {
		o.fail("%s: traced run: %s", workload, traced.TraceErr)
	}

	for name, v := range ladder {
		o.Metrics[name] = v
	}
	o.Metrics["scenario.sim_s"] = value{Value: traced.SimS}
	o.Metrics["scenario.audit_s"] = value{Value: traced.AuditS}
	o.Metrics["trace.overhead_pct"] = value{Value: 100 * (traced.WallS - plain.WallS) / plain.WallS}
	o.Metrics["host.peak_rss_mb"] = value{Value: rssMB}

	shares, err := cpuShares(profile)
	if err != nil {
		return o, fmt.Errorf("%s: %w", workload, err)
	}
	var total float64
	for _, layer := range cpuLayers {
		o.Metrics[layer+".cpu_pct"] = value{Value: shares[layer]}
		total += shares[layer]
	}
	if total < 99 || total > 101 {
		o.fail("%s: cpu shares sum to %.2f, want 100", workload, total)
	}

	var waits float64
	for name, v := range traced.Layers {
		if name == anatomyE2E {
			continue
		}
		o.Metrics[name] = value{Value: v}
		if strings.HasSuffix(name, "_wait_ms") {
			waits += v
		}
	}
	if e2e := traced.Layers[anatomyE2E]; waits < e2e*0.999 || waits > e2e*1.001 {
		o.fail("%s: anatomy waits sum to %.4f ms, end-to-end mean is %.4f ms", workload, waits, e2e)
	}
	// Units come from the metric table; a counter the workload never
	// touched reads 0.
	for _, d := range perLayer {
		v := o.Metrics[d.Name]
		v.Unit = d.Unit
		o.Metrics[d.Name] = v
	}
	return o, nil
}
