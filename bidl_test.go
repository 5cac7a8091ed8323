package bidl

import (
	"testing"
	"time"
)

func TestSystemEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumOrgs = 8
	cfg.BlockSize = 50
	cfg.BlockTimeout = 5 * time.Millisecond
	w := DefaultWorkload(cfg.NumOrgs)
	w.NumClients = 10
	w.Accounts = 500
	sys := NewSystem(cfg, w)
	n := sys.SubmitRate(5000, 200*time.Millisecond)
	sys.Run(time.Second)
	sum := sys.Summary(0, time.Second)
	if sum.Committed != n {
		t.Fatalf("committed %d of %d", sum.Committed, n)
	}
	if sum.AbortRate != 0 {
		t.Fatalf("abort rate %.2f on deterministic workload", sum.AbortRate)
	}
	if sum.AvgLatency <= 0 || sum.AvgLatency > 100*time.Millisecond {
		t.Fatalf("latency %v", sum.AvgLatency)
	}
	if err := sys.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineSystemEndToEnd(t *testing.T) {
	for _, v := range []BaselineVariant{HLF, FastFabric, StreamChain} {
		cfg := DefaultBaselineConfig(v)
		cfg.NumOrgs = 8
		cfg.BlockSize = 50
		cfg.BlockTimeout = 5 * time.Millisecond
		if v == StreamChain {
			cfg.BlockSize = 1
			cfg.BlockTimeout = 500 * time.Microsecond
		}
		w := DefaultWorkload(cfg.NumOrgs)
		w.NumClients = 10
		w.Accounts = 500
		sys := NewBaselineSystem(cfg, w)
		n := sys.SubmitRate(1000, 200*time.Millisecond)
		sys.Run(2 * time.Second)
		if got := sys.Summary(0, 2*time.Second).Committed; got != n {
			t.Fatalf("variant %v committed %d of %d", v, got, n)
		}
		if err := sys.CheckSafety(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := RunExperiment("nope", BenchOptions{Scale: 0.1, Seed: 1}); err == nil {
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
		cfg := DefaultConfig()
		cfg.NumOrgs = 8
		cfg.BlockSize = 50
		w := DefaultWorkload(cfg.NumOrgs)
		w.NumClients = 10
		w.Accounts = 500
		sys := NewSystem(cfg, w)
		sys.SubmitRate(3000, 200*time.Millisecond)
		sys.Run(time.Second)
		return sys.Summary(0, time.Second)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs diverge: %+v vs %+v", a, b)
	}
}
