package bidl

import (
	"testing"
	"time"
)

// smallSpec is an 8-organization deployment offered rate txns/s for 200 ms
// of load, simulated to 1 s.
func smallSpec(framework string, rate float64) Scenario {
	var s Scenario
	s.Framework = framework
	s.Nodes.Orgs = 8
	s.Tuning.BlockSize = 50
	s.Tuning.BlockTimeout = ScenarioDuration(5 * time.Millisecond)
	s.Workload.Clients, s.Workload.Accounts = 10, 500
	s.Load.Rate, s.Load.Window = rate, ScenarioDuration(200*time.Millisecond)
	s.Load.Drain = ScenarioDuration(800 * time.Millisecond)
	return s
}

// runSmall runs s and summarizes every commit of the whole run.
func runSmall(t *testing.T, s Scenario, rc ScenarioRunConfig) (ScenarioResult, Summary) {
	t.Helper()
	res, err := RunScenarioWith(s, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyErr != nil {
		t.Fatal(res.SafetyErr)
	}
	return res, res.Collector.Summarize(0, 2*time.Second)
}

func TestSystemEndToEnd(t *testing.T) {
	res, sum := runSmall(t, smallSpec(FrameworkBIDL, 5000), ScenarioRunConfig{})
	if sum.Committed != res.Submitted {
		t.Fatalf("committed %d of %d", sum.Committed, res.Submitted)
	}
	if sum.AbortRate != 0 {
		t.Fatalf("abort rate %.2f on deterministic workload", sum.AbortRate)
	}
	if sum.AvgLatency <= 0 || sum.AvgLatency > 100*time.Millisecond {
		t.Fatalf("latency %v", sum.AvgLatency)
	}
}

func TestBaselineSystemEndToEnd(t *testing.T) {
	for _, fw := range []string{FrameworkHLF, FrameworkFastFabric, FrameworkStreamChain} {
		s := smallSpec(fw, 1000)
		s.Load.Drain = ScenarioDuration(1800 * time.Millisecond)
		if fw == FrameworkStreamChain {
			s.Tuning.BlockSize = 1
			s.Tuning.BlockTimeout = ScenarioDuration(500 * time.Microsecond)
		}
		if res, sum := runSmall(t, s, ScenarioRunConfig{}); sum.Committed != res.Submitted {
			t.Fatalf("%s committed %d of %d", fw, sum.Committed, res.Submitted)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, _, err := MeasureExperiment("nope", BenchOptions{Scale: 0.1, Seed: 1}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	want := map[string]bool{
		"fig3": true, "fig5": true, "fig6": true, "fig7": true, "fig8": true,
		"fig9": true, "fig10": true, "table2": true, "table3": true,
		"table4": true, "ablation": true,
	}
	for _, e := range Experiments() {
		delete(want, e.ID)
		if e.Sweep == nil || e.Title == "" || len(e.Columns) == 0 || e.Description == "" || e.Paper == "" {
			t.Fatalf("experiment %s incompletely registered", e.ID)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing experiments: %v", want)
	}
}

func TestDeterministicSystems(t *testing.T) {
	run := func() Summary {
		_, sum := runSmall(t, smallSpec(FrameworkBIDL, 3000), ScenarioRunConfig{})
		return sum
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs diverge: %+v vs %+v", a, b)
	}
}
