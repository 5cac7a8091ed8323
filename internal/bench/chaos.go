package bench

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/scenario"
)

// --- Chaos catalog sweep ----------------------------------------------------

func init() {
	register(Experiment{
		ID:    "chaos",
		Paper: "robustness",
		Description: "Sweep the chaos catalog (crash/restart, partition heal, DC outage, " +
			"drop storm, churn, sequencer failover, fabric crash) and report per-scenario " +
			"commit progress, view changes, and the end-of-run consistency audit.",
		Scenarios: chaosScenarios,
		Table:     chaosTable,
	})
}

// chaosSpecs returns the catalog scenarios in catalog order, built
// programmatically so `bidl bench -run chaos` works from any working
// directory. The examples/scenario-chaos-*.json files are the same specs in
// JSON form (the catalog's runnable-from-JSON surface, fed to `bidl run
// -scenario` and the chaos test gate); TestChaosSpecsMatchCatalogFiles pins
// the two representations together, so edit both or neither.
func chaosSpecs() []scenario.Scenario {
	ms := func(n int) scenario.Duration { return scenario.Duration(time.Duration(n) * time.Millisecond) }
	return []scenario.Scenario{
		{
			Name:      "chaos-crash",
			Framework: scenario.FrameworkBIDL,
			Nodes:     scenario.NodesSpec{Orgs: 6, PerOrg: 2, Consensus: 4},
			Load:      scenario.LoadSpec{Rate: 2000, Window: ms(1000)},
			Faults: []scenario.FaultSpec{
				{Kind: chaos.KindCrash, At: ms(200), Duration: ms(300), Org: 2, Node: 0},
			},
		},
		{
			Name:      "chaos-partition",
			Framework: scenario.FrameworkBIDL,
			Nodes:     scenario.NodesSpec{Orgs: 6, PerOrg: 2, Consensus: 4},
			Load:      scenario.LoadSpec{Rate: 2000, Window: ms(1000)},
			Faults: []scenario.FaultSpec{
				{Kind: chaos.KindPartition, At: ms(200), Duration: ms(250), Org: 1},
			},
		},
		{
			Name:      "chaos-dc-outage",
			Framework: scenario.FrameworkBIDL,
			Nodes:     scenario.NodesSpec{Orgs: 6, PerOrg: 1, Consensus: 4, Datacenters: 3},
			Load:      scenario.LoadSpec{Rate: 1500, Window: ms(1200)},
			Faults: []scenario.FaultSpec{
				{Kind: chaos.KindDCOutage, At: ms(250), Duration: ms(250), DC: 2},
			},
		},
		{
			Name:      "chaos-storm",
			Framework: scenario.FrameworkBIDL,
			Nodes:     scenario.NodesSpec{Orgs: 6, PerOrg: 1, Consensus: 4},
			Tuning:    scenario.TuningSpec{ViewTimeout: ms(100)},
			Load:      scenario.LoadSpec{Rate: 2000, Window: ms(1000)},
			Faults: []scenario.FaultSpec{
				{Kind: chaos.KindDropStorm, At: ms(200), Duration: ms(250), Rate: 0.7},
			},
		},
		{
			Name:      "chaos-churn",
			Framework: scenario.FrameworkBIDL,
			Nodes:     scenario.NodesSpec{Orgs: 6, PerOrg: 2, Consensus: 4},
			Load:      scenario.LoadSpec{Rate: 2000, Window: ms(1200)},
			Faults: []scenario.FaultSpec{
				{Kind: chaos.KindChurn, At: ms(150), Count: 4, Period: ms(200)},
			},
		},
		{
			Name:      "chaos-seq-failover",
			Framework: scenario.FrameworkBIDL,
			Nodes:     scenario.NodesSpec{Orgs: 6, PerOrg: 1, Consensus: 4},
			Load:      scenario.LoadSpec{Rate: 2000, Window: ms(1000)},
			Faults: []scenario.FaultSpec{
				{Kind: chaos.KindSeqFailover, At: ms(200), Duration: ms(200)},
			},
		},
		{
			Name:      "chaos-fabric-crash",
			Framework: scenario.FrameworkHLF,
			Nodes:     scenario.NodesSpec{Orgs: 4, PerOrg: 2, Consensus: 4},
			Load:      scenario.LoadSpec{Rate: 500, Window: ms(1000)},
			Faults: []scenario.FaultSpec{
				{Kind: chaos.KindCrash, At: ms(200), Duration: ms(300), Org: 1, Node: 1},
			},
		},
	}
}

// chaosScenarios ignores Options.Scale deliberately: each catalog window is
// calibrated against the invariant gates in internal/chaos (fault windows
// must end early enough for recovery to be observable), so shrinking them
// would change what the sweep exercises.
func chaosScenarios(o Options) []scenario.Scenario {
	specs := chaosSpecs()
	for i := range specs {
		specs[i].Seed = o.Seed
	}
	return specs
}

func chaosTable(o Options, results []Result) *Table {
	t := &Table{
		ID:      "chaos",
		Title:   "chaos catalog sweep",
		Columns: []string{"scenario", "framework", "committed", "vchanges", "ktps", "consistent"},
		Notes: []string{
			"invariant gates (progress floors, trace-backed recovery deadlines) run in `go test ./internal/chaos`",
		},
	}
	specs := chaosSpecs()
	for i, r := range results {
		committed, vchanges := uint64(0), uint64(0)
		if r.Collector != nil {
			committed = uint64(r.Collector.NumCommitted())
			vchanges = r.Collector.ViewChanges
		}
		consistent := "yes"
		if r.SafetyErr != nil {
			consistent = r.SafetyErr.Error()
		}
		t.AddRow(
			specs[i].Name,
			specs[i].WithDefaults().Framework,
			fmt.Sprintf("%d", committed),
			fmt.Sprintf("%d", vchanges),
			ktps(r.Throughput),
			consistent,
		)
	}
	return t
}
