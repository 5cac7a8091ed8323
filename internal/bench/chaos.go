package bench

import (
	"fmt"
	"path"

	"github.com/bidl-framework/bidl/examples"
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
		Title:   "chaos catalog sweep",
		Columns: []string{"scenario", "framework", "committed", "vchanges", "ktps", "consistent"},
		Notes:   []string{"invariant gates (progress floors, trace-backed recovery deadlines) run in `go test ./internal/chaos`"},
		// The runs are the catalog's own spec files (embedded, so the sweep
		// works from any directory) in chaos.Catalog order. Options.Scale is
		// ignored deliberately: each window is calibrated against the
		// invariant gates in internal/chaos (fault windows must end early
		// enough for recovery to be observable), so shrinking them would
		// change what the sweep exercises.
		Sweep: func(o Options) (groups []Group) {
			for _, e := range chaos.Catalog() {
				sp := catalogSpec(e)
				sp.Seed = o.Seed
				groups = append(groups, single(sp, func(t *Table, r Result) {
					committed, vchanges := 0, uint64(0)
					if r.Collector != nil {
						committed = r.Collector.NumCommitted()
						vchanges = r.Collector.ViewChanges
					}
					consistent := "yes"
					if r.SafetyErr != nil {
						consistent = r.SafetyErr.Error()
					}
					t.AddRow(sp.Name, sp.WithDefaults().Framework, fmt.Sprint(committed),
						fmt.Sprint(vchanges), ktps(r.Throughput), consistent)
				}))
			}
			return groups
		},
	})
}

// catalogSpec parses a catalog entry's embedded spec file. Failing to is a
// defect of the build, not of any input: TestChaosExperimentRegistered pins it.
func catalogSpec(e chaos.Entry) scenario.Scenario {
	var sp scenario.Scenario
	data, err := examples.ChaosSpecs.ReadFile(path.Base(e.File))
	if err == nil {
		sp, err = scenario.Parse(data)
	}
	if err != nil {
		panic(fmt.Sprintf("bench: chaos catalog entry %s: %v", e.ID, err))
	}
	return sp
}
