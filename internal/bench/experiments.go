package bench

import (
	"fmt"
	"slices"
	"time"

	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/scenario"
)

// Every experiment below is pure data over the scenario layer: its Sweep
// lists, in table order, groups of declarative scenario specs (each builds
// its own cluster from the experiment seed via scenario.RunWith) with the
// function that turns that group's results into rows. Nothing here touches a
// cluster directly, so serial and parallel execution produce byte-identical
// tables, and `bidl bench -dump-scenarios` can emit every sweep as JSON.

// Default per-framework saturation offered loads (txns/s) in evaluation
// setting A, calibrated so each framework runs at its natural capacity:
// BIDL ≈ 40-45k (sequencer-bound), FastFabric ≈ 30k (MVCC-bound),
// HLF ≈ 8-9k (VSCC+MVCC-bound), StreamChain ≈ 2-3k (per-txn ordering).
const (
	satBIDL   = 44000
	satFF     = 30000
	satHLF    = 10000
	satStream = 3500
)

// mix is the standard workload (10000 accounts = 1% hot set of 100, per the
// paper's setup) at the given contention and non-determinism ratios.
func mix(contention, nondet float64) scenario.WorkloadSpec {
	return scenario.WorkloadSpec{Accounts: 10000, Contention: contention, Nondet: nondet}
}

// spec is one run: framework + experiment seed + workload under an open-loop
// load of rate (before Options scaling) for window. An otherwise-empty spec
// compiles to the paper's evaluation setting A.
func spec(framework, name string, o Options, w scenario.WorkloadSpec, rate float64, window time.Duration) scenario.Scenario {
	return scenario.Scenario{
		Name:      name,
		Framework: framework,
		Seed:      o.Seed,
		Workload:  w,
		Load:      scenario.LoadSpec{Rate: o.rate(rate), Window: scenario.Duration(window)},
	}
}

// settingB sizes the scalability setting: one consensus node per org.
func settingB(orgs, nnPerOrg int) scenario.NodesSpec {
	f := (orgs - 1) / 3
	if f < 1 {
		f = 1
	}
	return scenario.NodesSpec{Orgs: orgs, PerOrg: nnPerOrg, Consensus: orgs, Faults: f}
}

// single is a group of one run.
func single(sp scenario.Scenario, rows func(t *Table, r Result)) Group {
	return Group{[]scenario.Scenario{sp}, func(t *Table, res []Result) { rows(t, res[0]) }}
}

// perRun is the common row shape: the label cells, then cells(r) for each of
// the group's runs in order.
func perRun(cells func(Result) []string, label ...string) func(*Table, []Result) {
	return func(t *Table, res []Result) {
		row := slices.Clone(label)
		for _, r := range res {
			row = append(row, cells(r)...)
		}
		t.AddRow(row...)
	}
}

func tputCell(r Result) []string { return []string{ktps(r.Throughput)} }

// --- Figure 3: performance vs contention ratio ------------------------------

func init() {
	register(Experiment{
		ID:    "fig3",
		Paper: "Figure 3",
		Description: "Throughput, latency, and abort rate vs contention ratio " +
			"(0-50%) for BIDL, FastFabric, and HLF; 4 consensus nodes, 50 normal nodes.",
		Title: "Performance under contention (setting A)",
		Columns: []string{"contention", "bidl_ktps", "bidl_ms", "bidl_abort",
			"ff_ktps", "ff_ms", "ff_abort", "hlf_ktps", "hlf_ms", "hlf_abort"},
		Notes: []string{"paper: BIDL 40.1k txns/s with zero aborts at 50% contention; FF 2.2x lower with 37.7% aborts"},
		Sweep: func(o Options) (groups []Group) {
			window := o.scaled(1200 * time.Millisecond)
			for _, cr := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
				point := func(fw string, rate float64) scenario.Scenario {
					return spec(fw, fmt.Sprintf("%s, contention %.0f%%", fw, cr*100), o, mix(cr, 0), rate, window)
				}
				groups = append(groups, Group{
					Runs: []scenario.Scenario{
						point(scenario.FrameworkBIDL, satBIDL),
						point(scenario.FrameworkFastFabric, satFF),
						point(scenario.FrameworkHLF, satHLF),
					},
					Rows: perRun(func(r Result) []string {
						return []string{ktps(r.Throughput), ms(r.AvgLatency), pct(r.AbortRate)}
					}, pct(cr)),
				})
			}
			return groups
		},
	})
}

// --- Figure 5: throughput vs latency ----------------------------------------

func init() {
	register(Experiment{
		ID:    "fig5",
		Paper: "Figure 5",
		Description: "Throughput vs latency curves in the fault-free case for " +
			"BIDL, FastFabric, and StreamChain (offered-load sweep).",
		Title:   "Throughput vs latency (fault-free, setting A)",
		Columns: []string{"framework", "offered_ktps", "achieved_ktps", "avg_ms", "p99_ms"},
		Notes:   []string{"paper: StreamChain lowest latency at low throughput; BIDL dominates both throughput and latency at scale"},
		Sweep: func(o Options) (groups []Group) {
			window := o.scaled(1200 * time.Millisecond)
			curve := func(fw string, rates ...float64) {
				for _, rate := range rates {
					sp := spec(fw, fmt.Sprintf("%s at %.0f txns/s", fw, o.rate(rate)), o, mix(0, 0), rate, window)
					groups = append(groups, single(sp, func(t *Table, r Result) {
						t.AddRow(fw, ktps(o.rate(rate)), ktps(r.Throughput), ms(r.AvgLatency), ms(r.P99))
					}))
				}
			}
			curve(scenario.FrameworkBIDL, 5000, 10000, 20000, 30000, 40000, 44000)
			curve(scenario.FrameworkFastFabric, 5000, 10000, 20000, 26000, 30000)
			curve(scenario.FrameworkStreamChain, 500, 1000, 2000, 3000, 3500)
			return groups
		},
	})
}

// --- Figure 6: BIDL scalability across BFT protocols ------------------------

// fig6Orgs is the organization sweep of Figure 6 and Tables 2 and 3.
var fig6Orgs = []int{4, 7, 13, 25, 49, 97}

func init() {
	// The protocol columns are core's protocol names.
	protos := []string{"bft-smart", "zyzzyva", "sbft", "hotstuff"}
	register(Experiment{
		ID:    "fig6",
		Paper: "Figure 6",
		Description: "BIDL latency with four BFT protocols (BFT-SMaRt, Zyzzyva, " +
			"SBFT, HotStuff) as organizations scale 4..97 (setting B: 1 CN + 1 NN per org).",
		Title:   "BIDL latency vs #organizations per BFT protocol (ms)",
		Columns: append([]string{"orgs"}, protos...),
		Notes:   []string{"paper: latency first decreases (execution parallelism grows) then increases gently (consensus cost)"},
		Sweep: func(o Options) (groups []Group) {
			window := o.scaled(1 * time.Second)
			for _, orgs := range fig6Orgs {
				g := Group{Rows: perRun(func(r Result) []string { return []string{ms(r.AvgLatency)} }, fmt.Sprint(orgs))}
				for _, proto := range protos {
					sp := spec(scenario.FrameworkBIDL, fmt.Sprintf("%s with %d orgs", proto, orgs), o, mix(0, 0), 20000, window)
					sp.Protocol = proto
					sp.Nodes = settingB(orgs, 1)
					g.Runs = append(g.Runs, sp)
				}
				groups = append(groups, g)
			}
			return groups
		},
	})
}

// --- Tables 2 and 3: latency breakdowns -------------------------------------

// breakdown is the sweep both tables share: one setting-B run per
// organization count at 15k txns/s, one row of phase averages from it.
func breakdown(framework, protocol string, row func(orgs string, c *metrics.Collector) []string) func(Options) []Group {
	return func(o Options) (groups []Group) {
		window := o.scaled(1 * time.Second)
		for _, orgs := range fig6Orgs {
			sp := spec(framework, fmt.Sprintf("%d orgs", orgs), o, mix(0, 0), 15000, window)
			sp.Protocol = protocol
			sp.Nodes = settingB(orgs, 1)
			groups = append(groups, single(sp, func(t *Table, r Result) {
				t.AddRow(row(fmt.Sprint(orgs), r.Collector)...)
			}))
		}
		return groups
	}
}

func init() {
	register(Experiment{
		ID:    "table2",
		Paper: "Table 2",
		Description: "FastFabric-SMaRt end-to-end latency breakdown " +
			"(endorse/consensus/validate) vs #organizations.",
		Title:   "FastFabric-SMaRt latency breakdown (ms)",
		Columns: []string{"orgs", "P1_endorse", "P2_consensus", "P3_validate", "end_to_end"},
		Notes:   []string{"paper (4→97 orgs): endorse 9.2→6.5, consensus 10.4→16.2, validate 51.5→6.9, e2e 71.0→29.6"},
		// bft-smart: the paper's modified FastFabric-SMaRt.
		Sweep: breakdown(scenario.FrameworkFastFabric, "bft-smart", func(orgs string, c *metrics.Collector) []string {
			endorse := c.PhaseAvg(metrics.PhaseEndorse)
			cons := c.PhaseAvg(metrics.PhaseConsensus)
			validate := c.PhaseAvg(metrics.PhaseValidate)
			return []string{orgs, ms(endorse), ms(cons), ms(validate), ms(endorse + cons + validate)}
		}),
	})
	register(Experiment{
		ID:    "table3",
		Paper: "Table 3",
		Description: "BIDL-SMaRt end-to-end latency breakdown " +
			"(consensus/ver&exec/persist/commit) vs #organizations.",
		Title:   "BIDL-SMaRt latency breakdown (ms)",
		Columns: []string{"orgs", "P1_consensus", "P2_ver_exec", "P3_persist", "P4_execution", "P5_commit", "end_to_end"},
		Notes:   []string{"paper (4→97 orgs): consensus 10.3→16.4, ver&exec 59.3→7.6, persist 0.5→2.1, commit ~2.7, e2e = max(P1,P4)+P5 62.5→19.3"},
		Sweep: breakdown(scenario.FrameworkBIDL, "", func(orgs string, c *metrics.Collector) []string {
			cons := c.PhaseAvg(metrics.PhaseConsensus)
			verexec := c.PhaseAvg(metrics.PhaseVerexec)
			persist := c.PhaseAvg(metrics.PhasePersist)
			commit := c.PhaseAvg(metrics.PhaseCommit)
			exec := verexec + persist
			e2e := max(cons, exec) + commit
			return []string{orgs, ms(cons), ms(verexec), ms(persist), ms(exec), ms(commit), ms(e2e)}
		}),
	})
}

// --- Table 4: malicious participants -----------------------------------------

func init() {
	register(Experiment{
		ID:    "table4",
		Paper: "Table 4",
		Description: "Effective throughput under S1 (fault-free), S2 (malicious " +
			"leader proposing invalid transactions), S3 (malicious broadcaster) " +
			"for StreamChain, HLF, FastFabric, BIDL without denylist, and BIDL.",
		Title:   "Effective throughput under malicious participants (ktxns/s)",
		Columns: []string{"framework", "S1_fault_free", "S2_malicious_leader", "S3_malicious_broadcaster"},
		Notes:   []string{"paper: SC 2.73 / HLF 9.25 / FF 29.32 / BIDL-no-denylist 41.67,41.67,10.75 / BIDL 41.67 across all"},
		Sweep: func(o Options) []Group {
			window := o.scaled(2 * time.Second)
			adversary := map[string][]scenario.FaultSpec{
				"S1": nil,
				"S2": {{Kind: chaos.KindLeader}},
				"S3": {{Kind: chaos.KindBroadcaster, At: scenario.Duration(100 * time.Millisecond)}},
			}
			// system is one row. Each cell names the situation whose
			// throughput it shows, or is literal text; every situation
			// named is run once, in order of first mention.
			system := func(label, framework string, rate float64, noDenylist bool, cells ...string) Group {
				var g Group
				runOf := map[string]int{}
				for _, c := range cells {
					faults, situation := adversary[c]
					if _, seen := runOf[c]; seen || !situation {
						continue
					}
					runOf[c] = len(g.Runs)
					sp := spec(framework, label+" "+c, o, mix(0, 0), rate, window)
					sp.Load.Warmup = scenario.Duration(window / 2) // measure after the system stabilizes post-attack
					sp.Faults = faults
					sp.Tuning.DisableDenylist = noDenylist
					g.Runs = append(g.Runs, sp)
				}
				g.Rows = func(t *Table, res []Result) {
					row := []string{label}
					for _, c := range cells {
						if i, ok := runOf[c]; ok {
							c = ktps(res[i].Throughput)
						}
						row = append(row, c)
					}
					t.AddRow(row...)
				}
				return g
			}
			return []Group{
				system("streamchain", scenario.FrameworkStreamChain, satStream, false, "S1", "N/A", "N/A"),
				// HLF: S3 unaffected (no multicast ingestion).
				system("hlf", scenario.FrameworkHLF, satHLF, false, "S1", "S2", "S1"),
				// FastFabric: only S1 is in its trust model.
				system("fastfabric", scenario.FrameworkFastFabric, satFF, false, "S1", "N/A", "N/A"),
				// BIDL without the denylist: S3 hurts and stays hurt.
				system("bidl-no-denylist", scenario.FrameworkBIDL, satBIDL, true, "S1", "S2", "S3"),
				// BIDL with the full shepherded workflow.
				system("bidl", scenario.FrameworkBIDL, satBIDL, false, "S1", "S2", "S3"),
			}
		},
	})
}

// --- Figure 7: real-time throughput under the smart adversary ----------------

func init() {
	register(Experiment{
		ID:    "fig7",
		Paper: "Figure 7",
		Description: "Real-time BIDL throughput while a smart adversary attacks " +
			"only one correct node's views: dip, view changes, denylist, recovery.",
		Title:   "BIDL throughput timeline under the smart adversary",
		Columns: []string{"time_s", "ktps"},
		Notes:   []string{"paper: throughput dips on attack, view changes rotate the leader, the denylist restores peak throughput"},
		// A single timeline run: nothing to fan out.
		Sweep: func(o Options) []Group {
			horizon := o.scaled(6 * time.Second)
			attackAt := horizon / 6
			const rate = satBIDL * 3 / 4
			sp := spec(scenario.FrameworkBIDL, fmt.Sprintf("%.0f txns/s, attack at %v", o.rate(rate), attackAt), o, mix(0, 0), rate, horizon)
			sp.Load.Warmup = scenario.Duration(time.Millisecond)
			sp.Faults = []scenario.FaultSpec{{Kind: chaos.KindSmart, At: scenario.Duration(attackAt)}}
			return []Group{single(sp, func(t *Table, r Result) {
				width := horizon / 30
				for i, v := range r.Collector.Timeline(width, horizon) {
					t.AddRow(fmt.Sprintf("%.2f", (time.Duration(i)*width).Seconds()), ktps(v))
				}
				t.Notes = append(t.Notes, fmt.Sprintf("attack starts at %.2fs; view changes observed: %d; clients denied: %d",
					attackAt.Seconds(), r.Collector.ViewChanges, r.Collector.DeniedClients))
			})}
		},
	})
}

// --- Figure 8: non-determinism and contention robustness ---------------------

func init() {
	register(Experiment{
		ID:    "fig8",
		Paper: "Figure 8",
		Description: "Effective throughput of BIDL vs FastFabric under increasing " +
			"non-determinism ratio and increasing contention ratio.",
		Title:   "Robustness to non-deterministic and contended workloads (ktxns/s)",
		Columns: []string{"workload", "param", "bidl_ktps", "bidl_abort", "ff_ktps", "ff_abort"},
		Notes:   []string{"paper: both drop with non-determinism (BIDL faster); under contention BIDL holds throughput with zero aborts while FF aborts grow"},
		Sweep: func(o Options) (groups []Group) {
			window := o.scaled(1200 * time.Millisecond)
			for _, mode := range []string{"nondet", "contention"} {
				for _, ratio := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
					w := mix(ratio, 0)
					if mode == "nondet" {
						w = mix(0, ratio)
					}
					point := func(fw string, rate float64) scenario.Scenario {
						return spec(fw, fmt.Sprintf("%s, %s %.0f%%", fw, mode, ratio*100), o, w, rate, window)
					}
					groups = append(groups, Group{
						Runs: []scenario.Scenario{
							point(scenario.FrameworkBIDL, satBIDL),
							point(scenario.FrameworkFastFabric, satFF),
						},
						Rows: perRun(func(r Result) []string {
							return []string{ktps(r.Throughput), pct(r.AbortRate)}
						}, mode, pct(ratio)),
					})
				}
			}
			return groups
		},
	})
}

// --- Figure 9: multi-datacenter bandwidth -------------------------------------

func init() {
	register(Experiment{
		ID:    "fig9",
		Paper: "Figure 9",
		Description: "BIDL vs BIDL-opt-disabled (no IP multicast, no consensus-on-hash) " +
			"across 4 datacenters with shrinking inter-DC bandwidth.",
		Title:   "Throughput over 4 datacenters vs inter-DC bandwidth (ktxns/s)",
		Columns: []string{"bandwidth_gbps", "bidl", "bidl_opt_disabled"},
		Notes:   []string{"paper: BIDL degrades slowly as bandwidth shrinks; without multicast+consensus-on-hash the gap widens at tight bandwidth"},
		Sweep: func(o Options) (groups []Group) {
			window := o.scaled(1200 * time.Millisecond)
			for _, gbps := range []float64{10, 5, 2, 1, 0.5} {
				g := Group{Rows: perRun(tputCell, fmt.Sprintf("%.1f", gbps))}
				for _, optDisabled := range []bool{false, true} {
					sp := spec(scenario.FrameworkBIDL,
						fmt.Sprintf("%.1f Gbps inter-DC (opt_disabled=%v)", gbps, optDisabled), o, mix(0, 0), satBIDL/2, window)
					sp.Nodes.Datacenters = 4
					sp.Topology.InterDCGbps = gbps
					sp.Topology.InterLatency = scenario.Duration(10 * time.Millisecond) // 20ms RTT (§6.4)
					sp.Tuning.ViewTimeout = scenario.Duration(400 * time.Millisecond)
					sp.Tuning.BlockTimeout = scenario.Duration(25 * time.Millisecond)
					sp.Tuning.DisableMulticast = optDisabled
					sp.Tuning.ConsensusOnPayload = optDisabled
					g.Runs = append(g.Runs, sp)
				}
				groups = append(groups, g)
			}
			return groups
		},
	})
}

// --- Figure 10: packet loss ---------------------------------------------------

func init() {
	register(Experiment{
		ID:    "fig10",
		Paper: "Figure 10",
		Description: "BIDL vs FastFabric effective throughput under increasing " +
			"packet-loss rates.",
		Title:   "Throughput vs packet-loss rate (ktxns/s)",
		Columns: []string{"loss", "bidl", "fastfabric"},
		Notes:   []string{"paper: BIDL's gain over FF is largest at low loss and narrows as loss grows"},
		Sweep: func(o Options) (groups []Group) {
			window := o.scaled(1500 * time.Millisecond)
			for _, loss := range []float64{0, 0.005, 0.01, 0.02, 0.04, 0.08} {
				point := func(fw string, rate float64) scenario.Scenario {
					sp := spec(fw, fmt.Sprintf("%s, %.1f%% loss", fw, loss*100), o, mix(0, 0), rate, window)
					sp.Topology.LossRate = loss
					return sp
				}
				groups = append(groups, Group{
					Runs: []scenario.Scenario{
						point(scenario.FrameworkBIDL, satBIDL*3/4),
						point(scenario.FrameworkFastFabric, satFF*3/4),
					},
					Rows: perRun(tputCell, pct(loss)),
				})
			}
			return groups
		},
	})
}

// --- Ablations ----------------------------------------------------------------

func init() {
	register(Experiment{
		ID:    "ablation",
		Paper: "Design ablations (extension)",
		Description: "BIDL design-choice ablations: parallel vs sequential workflow, " +
			"IP multicast, consensus-on-hash.",
		Title:   "BIDL ablations (setting A)",
		Columns: []string{"variant", "ktps", "avg_ms", "p99_ms", "spec_success"},
		Notes:   []string{"no-speculation reverts to the sequential workflow: latency rises by roughly the execution phase"},
		Sweep: func(o Options) []Group {
			window := o.scaled(1200 * time.Millisecond)
			variant := func(name string, tuning scenario.TuningSpec) Group {
				sp := spec(scenario.FrameworkBIDL, name, o, mix(0.2, 0), satBIDL*3/4, window)
				sp.Tuning = tuning
				return single(sp, func(t *Table, r Result) {
					t.AddRow(name, ktps(r.Throughput), ms(r.AvgLatency), ms(r.P99), pct(r.SpecSuccess))
				})
			}
			return []Group{
				variant("bidl-full", scenario.TuningSpec{}),
				variant("no-speculation", scenario.TuningSpec{DisableSpeculation: true}),
				variant("no-multicast", scenario.TuningSpec{DisableMulticast: true}),
				variant("consensus-on-payload", scenario.TuningSpec{ConsensusOnPayload: true}),
			}
		},
	})
}
