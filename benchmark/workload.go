package main

import (
	"embed"
	"fmt"
	"time"

	"github.com/bidl-framework/bidl"
)

//go:embed workloads/*.json
var workloadFS embed.FS

// workloadNames fixes the run order; each has a spec in workloads/<name>.json.
var workloadNames = []string{"steady", "saturated", "wide", "contended", "fabric", "sharded", "faulty"}

// defaultScale multiplies every spec's load window (and fault times, so the
// schedule keeps its place in the window). The specs hold the sizes that are
// measured; the smoke test runs them at a twentieth.
const defaultScale = 1.0

func scaleDur(d bidl.ScenarioDuration, f float64) bidl.ScenarioDuration {
	return bidl.ScenarioDuration(time.Duration(float64(d) * f).Round(time.Microsecond))
}

// loadWorkload parses a workload spec, scales it, and injects the seed. The
// specs leave seed, engine and the legacy attack field unset so that the
// program's defaults apply; a spec that sets one is rejected.
func loadWorkload(name string, seed int64, scale float64) (bidl.Scenario, error) {
	data, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return bidl.Scenario{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	s, err := bidl.ParseScenario(data)
	if err != nil {
		return bidl.Scenario{}, fmt.Errorf("workload %s: %w", name, err)
	}
	if s.Seed != 0 || s.SimWorkers != 0 || s.Attack.Kind != "" || s.Workload.Seed != 0 {
		return bidl.Scenario{}, fmt.Errorf("workload %s: spec must not set seed, sim_workers or attack", name)
	}
	s.Seed = seed
	s.Load.Window = scaleDur(s.Load.Window, scale)
	s.Load.Warmup = scaleDur(s.Load.Warmup, scale)
	for i := range s.Faults {
		f := &s.Faults[i]
		f.At, f.Duration, f.Period = scaleDur(f.At, scale), scaleDur(f.Duration, scale), scaleDur(f.Period, scale)
	}
	return s, nil
}

// measureWindow resolves the spec's measurement interval [warm-up, window)
// the way scenario.RunWith does.
func measureWindow(s bidl.Scenario) (warmup, window time.Duration) {
	window = s.Load.Window.D()
	warmup = s.Load.Warmup.D()
	if warmup == 0 {
		warmup = window / 5
	}
	return warmup, window
}

// runHorizon is the virtual time the run simulates: window plus drain, with
// scenario.RunWith's default drain.
func runHorizon(s bidl.Scenario) time.Duration {
	drain := s.Load.Drain.D()
	if drain == 0 {
		drain = 500 * time.Millisecond
	}
	return s.Load.Window.D() + drain
}

// setupSpec is the workload with nothing to simulate: what remains is the
// fixed per-run cost (cluster build, client registration, prepopulation,
// scheduling one tick of load, summary, audit of empty ledgers).
func setupSpec(s bidl.Scenario) bidl.Scenario {
	s.Load.Window = bidl.ScenarioDuration(time.Millisecond)
	s.Load.Warmup = 0
	s.Load.Drain = bidl.ScenarioDuration(time.Millisecond)
	return s
}
