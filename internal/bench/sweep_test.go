package bench

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

// TestSweepGroupsConsumeTheirRuns pins the contract between a sweep and the
// methods derived from it, for every experiment at two scales: Scenarios is
// the groups' runs flattened, Table hands each group exactly the results of
// its own runs (tagged here by position, clipped so an append cannot reach a
// neighbour's), and every row a group adds has one cell per column.
func TestSweepGroupsConsumeTheirRuns(t *testing.T) {
	for _, e := range All() {
		for _, o := range []Options{{Scale: 0.05, Seed: 7}, {Scale: 1, Seed: 1}} {
			groups := e.Sweep(o)
			specs := e.Scenarios(o)
			res := make([]Result, len(specs))
			for i := range res {
				res[i] = Result{Result: scenario.Result{Events: uint64(i), Collector: metrics.NewCollector()}}
				if e.Traced {
					res[i].Anatomy = &anatomy.Report{}
				}
			}
			next := 0
			for gi := range groups {
				g, first := groups[gi], next
				if len(g.Runs) == 0 {
					t.Fatalf("%s group %d has no runs", e.ID, gi)
				}
				next += len(g.Runs)
				groups[gi].Rows = func(tab *Table, got []Result) {
					if len(got) != len(g.Runs) || cap(got) != len(g.Runs) {
						t.Fatalf("%s group %d: handed %d results (cap %d) for %d runs", e.ID, gi, len(got), cap(got), len(g.Runs))
					}
					for i, r := range got {
						if r.Events != uint64(first+i) {
							t.Fatalf("%s group %d: result %d is run %d of the sweep, want %d", e.ID, gi, i, r.Events, first+i)
						}
					}
					before := len(tab.Rows)
					g.Rows(tab, got)
					if len(tab.Rows) == before {
						t.Fatalf("%s group %d added no row", e.ID, gi)
					}
				}
			}
			if next != len(specs) {
				t.Fatalf("%s scale %v: %d scenarios, groups hold %d runs", e.ID, o.Scale, len(specs), next)
			}
			tab := e.assemble(groups, res)
			for i, row := range tab.Rows {
				if len(row) != len(e.Columns) {
					t.Fatalf("%s scale %v: row %d has %d cells, table has %d columns", e.ID, o.Scale, i, len(row), len(e.Columns))
				}
			}
		}
	}
}
