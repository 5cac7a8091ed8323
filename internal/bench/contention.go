package bench

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
)

// --- Contention: skew × load shape (extension) ------------------------------

// The contention experiment stresses what §6.3's fixed hot-set sweep cannot:
// realistic access skew (Zipf account popularity), realistic arrival
// processes (diurnal and bursty load shapes), closed-loop clients with
// backpressure, and the multi-step settlement contract — on BIDL and both
// Fabric baselines. It is the golden-gated face of the million-user
// workload layer.

func init() {
	register(Experiment{
		ID:    "contention",
		Paper: "Skew × load shape (extension)",
		Description: "BIDL vs FastFabric vs HLF under uniform and Zipf(1.5) account " +
			"skew crossed with constant/diurnal/burst open-loop shapes and " +
			"closed-loop clients, with 20% multi-step settlement flows.",
		Title: "Skew × load shape: throughput and aborts (settlement 20%)",
		Columns: []string{"skew", "shape", "bidl_ktps", "bidl_abort",
			"ff_ktps", "ff_abort", "hlf_ktps", "hlf_abort", "bidl_submitted"},
		Notes: []string{
			"Zipf skew concentrates writes on popular accounts: BIDL holds throughput via speculative re-execution while the baselines' MVCC abort rates grow",
			"bidl_submitted < open-loop demand on closed rows shows backpressure withholding load the cluster cannot absorb",
		},
		Sweep: func(o Options) (groups []Group) {
			window := o.scaled(1 * time.Second)
			for _, skew := range []struct {
				name string
				s    float64
			}{{"uniform", 0}, {"zipf1.5", 1.5}} {
				for _, shape := range []string{scenario.ShapeConstant, scenario.ShapeDiurnal, scenario.ShapeBurst, "closed"} {
					point := func(fw string, rate float64) scenario.Scenario {
						w := mix(0, 0)
						w.ZipfS = skew.s
						w.Settlement = 0.2
						sp := spec(fw, fmt.Sprintf("%s, %s skew, %s load", fw, skew.name, shape), o, w, rate, window)
						if shape == "closed" {
							// Closed-loop demand follows the constant curve; the
							// controller withholds whatever the cluster cannot absorb.
							sp.Load.ClosedLoop = &scenario.ClosedLoopSpec{MaxInFlight: 512}
						} else {
							sp.Load.Shape = shape
						}
						return sp
					}
					groups = append(groups, Group{
						Runs: []scenario.Scenario{
							point(scenario.FrameworkBIDL, satBIDL*3/4),
							point(scenario.FrameworkFastFabric, satFF*3/4),
							point(scenario.FrameworkHLF, satHLF*3/4),
						},
						Rows: func(t *Table, res []Result) {
							row := []string{skew.name, shape}
							for _, r := range res {
								row = append(row, ktps(r.Throughput), pct(r.AbortRate))
							}
							t.AddRow(append(row, fmt.Sprint(res[0].Submitted))...)
						},
					})
				}
			}
			return groups
		},
	})
}
