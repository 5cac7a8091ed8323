package bench

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/scenario"
)

// Every experiment below is pure data over the scenario layer: Scenarios
// expands the sweep into declarative scenario specs (each builds its own
// cluster from the experiment seed via the shared scenario driver), and
// Table assembles the rows from the gathered results in sweep order.
// Nothing here touches a cluster directly, so serial and parallel
// execution produce byte-identical tables, and `bidl bench
// -dump-scenarios` can emit every sweep as JSON.

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

// spec starts a sweep point: framework + experiment seed + the standard
// workload (10000 accounts = 1% hot set of 100, per the paper's setup).
// An otherwise-empty spec compiles to the paper's evaluation setting A.
func spec(framework, name string, o Options, contention, nondet float64) scenario.Scenario {
	return scenario.Scenario{
		Name:      name,
		Framework: framework,
		Seed:      o.Seed,
		Workload:  scenario.WorkloadSpec{Accounts: 10000, Contention: contention, Nondet: nondet},
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

func load(rate float64, window time.Duration) scenario.LoadSpec {
	return scenario.LoadSpec{Rate: rate, Window: scenario.Duration(window)}
}

// --- Figure 3: performance vs contention ratio ------------------------------

func init() {
	register(Experiment{
		ID:    "fig3",
		Paper: "Figure 3",
		Description: "Throughput, latency, and abort rate vs contention ratio " +
			"(0-50%) for BIDL, FastFabric, and HLF; 4 consensus nodes, 50 normal nodes.",
		Scenarios: fig3Scenarios,
		Table:     fig3Table,
	})
}

var fig3Ratios = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

func fig3Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1200 * time.Millisecond)
	var specs []scenario.Scenario
	for _, cr := range fig3Ratios {
		for _, fw := range []struct {
			name string
			rate float64
		}{
			{scenario.FrameworkBIDL, satBIDL},
			{scenario.FrameworkFastFabric, satFF},
			{scenario.FrameworkHLF, satHLF},
		} {
			sp := spec(fw.name, fmt.Sprintf("%s, contention %.0f%%", fw.name, cr*100), o, cr, 0)
			sp.Load = load(o.rate(fw.rate), window)
			specs = append(specs, sp)
		}
	}
	return specs
}

func fig3Table(o Options, res []Result) *Table {
	t := &Table{
		ID:    "fig3",
		Title: "Performance under contention (setting A)",
		Columns: []string{"contention", "bidl_ktps", "bidl_ms", "bidl_abort",
			"ff_ktps", "ff_ms", "ff_abort", "hlf_ktps", "hlf_ms", "hlf_abort"},
	}
	for i, cr := range fig3Ratios {
		b, f, h := res[3*i], res[3*i+1], res[3*i+2]
		t.AddRow(pct(cr),
			ktps(b.Throughput), ms(b.AvgLatency), pct(b.AbortRate),
			ktps(f.Throughput), ms(f.AvgLatency), pct(f.AbortRate),
			ktps(h.Throughput), ms(h.AvgLatency), pct(h.AbortRate))
	}
	t.Notes = append(t.Notes,
		"paper: BIDL 40.1k txns/s with zero aborts at 50% contention; FF 2.2x lower with 37.7% aborts")
	return t
}

// --- Figure 5: throughput vs latency ----------------------------------------

func init() {
	register(Experiment{
		ID:    "fig5",
		Paper: "Figure 5",
		Description: "Throughput vs latency curves in the fault-free case for " +
			"BIDL, FastFabric, and StreamChain (offered-load sweep).",
		Scenarios: fig5Scenarios,
		Table:     fig5Table,
	})
}

type fig5Point struct {
	name string
	rate float64
}

func fig5Points() []fig5Point {
	var points []fig5Point
	addSweep := func(name string, rates []float64) {
		for _, r := range rates {
			points = append(points, fig5Point{name, r})
		}
	}
	addSweep("bidl", []float64{5000, 10000, 20000, 30000, 40000, 44000})
	addSweep("fastfabric", []float64{5000, 10000, 20000, 26000, 30000})
	addSweep("streamchain", []float64{500, 1000, 2000, 3000, 3500})
	return points
}

func fig5Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1200 * time.Millisecond)
	points := fig5Points()
	specs := make([]scenario.Scenario, len(points))
	for i, p := range points {
		sp := spec(p.name, fmt.Sprintf("%s at %.0f txns/s", p.name, o.rate(p.rate)), o, 0, 0)
		sp.Load = load(o.rate(p.rate), window)
		specs[i] = sp
	}
	return specs
}

func fig5Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "fig5",
		Title:   "Throughput vs latency (fault-free, setting A)",
		Columns: []string{"framework", "offered_ktps", "achieved_ktps", "avg_ms", "p99_ms"},
	}
	for i, p := range fig5Points() {
		t.AddRow(p.name, ktps(o.rate(p.rate)), ktps(res[i].Throughput), ms(res[i].AvgLatency), ms(res[i].P99))
	}
	t.Notes = append(t.Notes,
		"paper: StreamChain lowest latency at low throughput; BIDL dominates both throughput and latency at scale")
	return t
}

// --- Figure 6: BIDL scalability across BFT protocols ------------------------

func init() {
	register(Experiment{
		ID:    "fig6",
		Paper: "Figure 6",
		Description: "BIDL latency with four BFT protocols (BFT-SMaRt, Zyzzyva, " +
			"SBFT, HotStuff) as organizations scale 4..97 (setting B: 1 CN + 1 NN per org).",
		Scenarios: fig6Scenarios,
		Table:     fig6Table,
	})
}

var fig6Orgs = []int{4, 7, 13, 25, 49, 97}

// fig6Protos must match core's protocol names (bft-smart, zyzzyva, sbft,
// hotstuff) in table-column order.
var fig6Protos = []string{"bft-smart", "zyzzyva", "sbft", "hotstuff"}

func fig6Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1 * time.Second)
	var specs []scenario.Scenario
	for _, orgs := range fig6Orgs {
		for _, proto := range fig6Protos {
			sp := spec(scenario.FrameworkBIDL, fmt.Sprintf("%s with %d orgs", proto, orgs), o, 0, 0)
			sp.Protocol = proto
			sp.Nodes = settingB(orgs, 1)
			sp.Load = load(o.rate(20000), window)
			specs = append(specs, sp)
		}
	}
	return specs
}

func fig6Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "fig6",
		Title:   "BIDL latency vs #organizations per BFT protocol (ms)",
		Columns: []string{"orgs", "bft-smart", "zyzzyva", "sbft", "hotstuff"},
	}
	for i, orgs := range fig6Orgs {
		row := []string{fmt.Sprintf("%d", orgs)}
		for j := range fig6Protos {
			row = append(row, ms(res[i*len(fig6Protos)+j].AvgLatency))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: latency first decreases (execution parallelism grows) then increases gently (consensus cost)")
	return t
}

// --- Tables 2 and 3: latency breakdowns -------------------------------------

func init() {
	register(Experiment{
		ID:    "table2",
		Paper: "Table 2",
		Description: "FastFabric-SMaRt end-to-end latency breakdown " +
			"(endorse/consensus/validate) vs #organizations.",
		Scenarios: table2Scenarios,
		Table:     table2Table,
	})
	register(Experiment{
		ID:    "table3",
		Paper: "Table 3",
		Description: "BIDL-SMaRt end-to-end latency breakdown " +
			"(consensus/ver&exec/persist/commit) vs #organizations.",
		Scenarios: table3Scenarios,
		Table:     table3Table,
	})
}

func table2Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1 * time.Second)
	specs := make([]scenario.Scenario, len(fig6Orgs))
	for i, orgs := range fig6Orgs {
		sp := spec(scenario.FrameworkFastFabric, fmt.Sprintf("%d orgs", orgs), o, 0, 0)
		sp.Protocol = "bft-smart" // the paper's modified FastFabric-SMaRt
		sp.Nodes = settingB(orgs, 1)
		sp.Load = load(o.rate(15000), window)
		specs[i] = sp
	}
	return specs
}

func table2Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "table2",
		Title:   "FastFabric-SMaRt latency breakdown (ms)",
		Columns: []string{"orgs", "P1_endorse", "P2_consensus", "P3_validate", "end_to_end"},
	}
	for i, orgs := range fig6Orgs {
		endorse := res[i].Collector.PhaseAvg(metrics.PhaseEndorse)
		cons := res[i].Collector.PhaseAvg(metrics.PhaseConsensus)
		validate := res[i].Collector.PhaseAvg(metrics.PhaseValidate)
		t.AddRow(fmt.Sprintf("%d", orgs), ms(endorse), ms(cons), ms(validate), ms(endorse+cons+validate))
	}
	t.Notes = append(t.Notes,
		"paper (4→97 orgs): endorse 9.2→6.5, consensus 10.4→16.2, validate 51.5→6.9, e2e 71.0→29.6")
	return t
}

func table3Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1 * time.Second)
	specs := make([]scenario.Scenario, len(fig6Orgs))
	for i, orgs := range fig6Orgs {
		sp := spec(scenario.FrameworkBIDL, fmt.Sprintf("%d orgs", orgs), o, 0, 0)
		sp.Nodes = settingB(orgs, 1)
		sp.Load = load(o.rate(15000), window)
		specs[i] = sp
	}
	return specs
}

func table3Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "table3",
		Title:   "BIDL-SMaRt latency breakdown (ms)",
		Columns: []string{"orgs", "P1_consensus", "P2_ver_exec", "P3_persist", "P4_execution", "P5_commit", "end_to_end"},
	}
	for i, orgs := range fig6Orgs {
		cons := res[i].Collector.PhaseAvg(metrics.PhaseConsensus)
		verexec := res[i].Collector.PhaseAvg(metrics.PhaseVerexec)
		persist := res[i].Collector.PhaseAvg(metrics.PhasePersist)
		commit := res[i].Collector.PhaseAvg(metrics.PhaseCommit)
		exec := verexec + persist
		e2e := cons
		if exec > e2e {
			e2e = exec
		}
		e2e += commit
		t.AddRow(fmt.Sprintf("%d", orgs), ms(cons), ms(verexec), ms(persist), ms(exec), ms(commit), ms(e2e))
	}
	t.Notes = append(t.Notes,
		"paper (4→97 orgs): consensus 10.3→16.4, ver&exec 59.3→7.6, persist 0.5→2.1, commit ~2.7, e2e = max(P1,P4)+P5 62.5→19.3")
	return t
}

// --- Table 4: malicious participants -----------------------------------------

func init() {
	register(Experiment{
		ID:    "table4",
		Paper: "Table 4",
		Description: "Effective throughput under S1 (fault-free), S2 (malicious " +
			"leader proposing invalid transactions), S3 (malicious broadcaster) " +
			"for StreamChain, HLF, FastFabric, BIDL without denylist, and BIDL.",
		Scenarios: table4Scenarios,
		Table:     table4Table,
	})
}

func table4Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(2 * time.Second)
	warm := window / 2 // measure after the system stabilizes post-attack

	point := func(framework, label string, rate float64, adversary []scenario.FaultSpec, noDenylist bool) scenario.Scenario {
		sp := spec(framework, label, o, 0, 0)
		sp.Load = load(o.rate(rate), window)
		sp.Load.Warmup = scenario.Duration(warm)
		sp.Faults = adversary
		sp.Tuning.DisableDenylist = noDenylist
		return sp
	}
	leader := []scenario.FaultSpec{{Kind: chaos.KindLeader}}
	bcast := []scenario.FaultSpec{{Kind: chaos.KindBroadcaster, At: scenario.Duration(100 * time.Millisecond)}}

	return []scenario.Scenario{
		point(scenario.FrameworkStreamChain, "streamchain S1", satStream, nil, false),
		point(scenario.FrameworkHLF, "hlf S1", satHLF, nil, false),
		point(scenario.FrameworkHLF, "hlf S2", satHLF, leader, false),
		point(scenario.FrameworkFastFabric, "fastfabric S1", satFF, nil, false),
		point(scenario.FrameworkBIDL, "bidl-no-denylist S1", satBIDL, nil, true),
		point(scenario.FrameworkBIDL, "bidl-no-denylist S2", satBIDL, leader, true),
		point(scenario.FrameworkBIDL, "bidl-no-denylist S3", satBIDL, bcast, true),
		point(scenario.FrameworkBIDL, "bidl S1", satBIDL, nil, false),
		point(scenario.FrameworkBIDL, "bidl S2", satBIDL, leader, false),
		point(scenario.FrameworkBIDL, "bidl S3", satBIDL, bcast, false),
	}
}

func table4Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "table4",
		Title:   "Effective throughput under malicious participants (ktxns/s)",
		Columns: []string{"framework", "S1_fault_free", "S2_malicious_leader", "S3_malicious_broadcaster"},
	}
	sc, h1, h2, ff := res[0], res[1], res[2], res[3]
	bn1, bn2, bn3 := res[4], res[5], res[6]
	b1, b2, b3 := res[7], res[8], res[9]

	t.AddRow("streamchain", ktps(sc.Throughput), "N/A", "N/A")
	// HLF: S3 unaffected (no multicast ingestion).
	t.AddRow("hlf", ktps(h1.Throughput), ktps(h2.Throughput), ktps(h1.Throughput))
	// FastFabric: only S1 is in its trust model.
	t.AddRow("fastfabric", ktps(ff.Throughput), "N/A", "N/A")
	// BIDL without the denylist: S3 hurts and stays hurt.
	t.AddRow("bidl-no-denylist", ktps(bn1.Throughput), ktps(bn2.Throughput), ktps(bn3.Throughput))
	// BIDL with the full shepherded workflow.
	t.AddRow("bidl", ktps(b1.Throughput), ktps(b2.Throughput), ktps(b3.Throughput))

	t.Notes = append(t.Notes,
		"paper: SC 2.73 / HLF 9.25 / FF 29.32 / BIDL-no-denylist 41.67,41.67,10.75 / BIDL 41.67 across all")
	return t
}

// --- Figure 7: real-time throughput under the smart adversary ----------------

func init() {
	register(Experiment{
		ID:    "fig7",
		Paper: "Figure 7",
		Description: "Real-time BIDL throughput while a smart adversary attacks " +
			"only one correct node's views: dip, view changes, denylist, recovery.",
		Scenarios: fig7Scenarios,
		Table:     fig7Table,
	})
}

func fig7Scenarios(o Options) []scenario.Scenario {
	horizon := o.scaled(6 * time.Second)
	attackAt := horizon / 6
	rate := o.rate(satBIDL * 3 / 4)
	// A single timeline run: nothing to fan out.
	sp := spec(scenario.FrameworkBIDL, fmt.Sprintf("%.0f txns/s, attack at %v", rate, attackAt), o, 0, 0)
	sp.Load = load(rate, horizon)
	sp.Load.Warmup = scenario.Duration(time.Millisecond)
	sp.Faults = []scenario.FaultSpec{{Kind: chaos.KindSmart, At: scenario.Duration(attackAt)}}
	return []scenario.Scenario{sp}
}

func fig7Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "BIDL throughput timeline under the smart adversary",
		Columns: []string{"time_s", "ktps"},
	}
	horizon := o.scaled(6 * time.Second)
	attackAt := horizon / 6
	width := horizon / 30
	for i, v := range res[0].Collector.Timeline(width, horizon) {
		t.AddRow(fmt.Sprintf("%.2f", (time.Duration(i)*width).Seconds()), ktps(v))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("attack starts at %.2fs; view changes observed: %d; clients denied: %d",
			attackAt.Seconds(), res[0].Collector.ViewChanges, res[0].Collector.DeniedClients),
		"paper: throughput dips on attack, view changes rotate the leader, the denylist restores peak throughput")
	return t
}

// --- Figure 8: non-determinism and contention robustness ---------------------

func init() {
	register(Experiment{
		ID:    "fig8",
		Paper: "Figure 8",
		Description: "Effective throughput of BIDL vs FastFabric under increasing " +
			"non-determinism ratio and increasing contention ratio.",
		Scenarios: fig8Scenarios,
		Table:     fig8Table,
	})
}

type fig8Point struct {
	mode  string
	ratio float64
}

func fig8Points() []fig8Point {
	var points []fig8Point
	for _, nd := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		points = append(points, fig8Point{"nondet", nd})
	}
	for _, cr := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		points = append(points, fig8Point{"contention", cr})
	}
	return points
}

func fig8Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1200 * time.Millisecond)
	var specs []scenario.Scenario
	for _, p := range fig8Points() {
		cr, nd := 0.0, 0.0
		if p.mode == "nondet" {
			nd = p.ratio
		} else {
			cr = p.ratio
		}
		b := spec(scenario.FrameworkBIDL, fmt.Sprintf("bidl, %s %.0f%%", p.mode, p.ratio*100), o, cr, nd)
		b.Load = load(o.rate(satBIDL), window)
		f := spec(scenario.FrameworkFastFabric, fmt.Sprintf("fastfabric, %s %.0f%%", p.mode, p.ratio*100), o, cr, nd)
		f.Load = load(o.rate(satFF), window)
		specs = append(specs, b, f)
	}
	return specs
}

func fig8Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "Robustness to non-deterministic and contended workloads (ktxns/s)",
		Columns: []string{"workload", "param", "bidl_ktps", "bidl_abort", "ff_ktps", "ff_abort"},
	}
	for i, p := range fig8Points() {
		b, f := res[2*i], res[2*i+1]
		t.AddRow(p.mode, pct(p.ratio), ktps(b.Throughput), pct(b.AbortRate), ktps(f.Throughput), pct(f.AbortRate))
	}
	t.Notes = append(t.Notes,
		"paper: both drop with non-determinism (BIDL faster); under contention BIDL holds throughput with zero aborts while FF aborts grow")
	return t
}

// --- Figure 9: multi-datacenter bandwidth -------------------------------------

func init() {
	register(Experiment{
		ID:    "fig9",
		Paper: "Figure 9",
		Description: "BIDL vs BIDL-opt-disabled (no IP multicast, no consensus-on-hash) " +
			"across 4 datacenters with shrinking inter-DC bandwidth.",
		Scenarios: fig9Scenarios,
		Table:     fig9Table,
	})
}

var fig9Bands = []float64{10, 5, 2, 1, 0.5}

func fig9Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1200 * time.Millisecond)
	var specs []scenario.Scenario
	for _, gbps := range fig9Bands {
		for _, optDisabled := range []bool{false, true} {
			sp := spec(scenario.FrameworkBIDL,
				fmt.Sprintf("%.1f Gbps inter-DC (opt_disabled=%v)", gbps, optDisabled), o, 0, 0)
			sp.Nodes.Datacenters = 4
			sp.Topology.InterDCGbps = gbps
			sp.Topology.InterLatency = scenario.Duration(10 * time.Millisecond) // 20ms RTT (§6.4)
			sp.Tuning.ViewTimeout = scenario.Duration(400 * time.Millisecond)
			sp.Tuning.BlockTimeout = scenario.Duration(25 * time.Millisecond)
			sp.Tuning.DisableMulticast = optDisabled
			sp.Tuning.ConsensusOnPayload = optDisabled
			sp.Load = load(o.rate(satBIDL/2), window)
			specs = append(specs, sp)
		}
	}
	return specs
}

func fig9Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Throughput over 4 datacenters vs inter-DC bandwidth (ktxns/s)",
		Columns: []string{"bandwidth_gbps", "bidl", "bidl_opt_disabled"},
	}
	for i, gbps := range fig9Bands {
		t.AddRow(fmt.Sprintf("%.1f", gbps), ktps(res[2*i].Throughput), ktps(res[2*i+1].Throughput))
	}
	t.Notes = append(t.Notes,
		"paper: BIDL degrades slowly as bandwidth shrinks; without multicast+consensus-on-hash the gap widens at tight bandwidth")
	return t
}

// --- Figure 10: packet loss ---------------------------------------------------

func init() {
	register(Experiment{
		ID:    "fig10",
		Paper: "Figure 10",
		Description: "BIDL vs FastFabric effective throughput under increasing " +
			"packet-loss rates.",
		Scenarios: fig10Scenarios,
		Table:     fig10Table,
	})
}

var fig10Losses = []float64{0, 0.005, 0.01, 0.02, 0.04, 0.08}

func fig10Scenarios(o Options) []scenario.Scenario {
	window := o.scaled(1500 * time.Millisecond)
	var specs []scenario.Scenario
	for _, loss := range fig10Losses {
		b := spec(scenario.FrameworkBIDL, fmt.Sprintf("bidl, %.1f%% loss", loss*100), o, 0, 0)
		b.Topology.LossRate = loss
		b.Load = load(o.rate(satBIDL*3/4), window)
		f := spec(scenario.FrameworkFastFabric, fmt.Sprintf("fastfabric, %.1f%% loss", loss*100), o, 0, 0)
		f.Topology.LossRate = loss
		f.Load = load(o.rate(satFF*3/4), window)
		specs = append(specs, b, f)
	}
	return specs
}

func fig10Table(o Options, res []Result) *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Throughput vs packet-loss rate (ktxns/s)",
		Columns: []string{"loss", "bidl", "fastfabric"},
	}
	for i, loss := range fig10Losses {
		t.AddRow(pct(loss), ktps(res[2*i].Throughput), ktps(res[2*i+1].Throughput))
	}
	t.Notes = append(t.Notes,
		"paper: BIDL's gain over FF is largest at low loss and narrows as loss grows")
	return t
}

// --- Ablations ----------------------------------------------------------------

func init() {
	register(Experiment{
		ID:    "ablation",
		Paper: "Design ablations (extension)",
		Description: "BIDL design-choice ablations: parallel vs sequential workflow, " +
			"IP multicast, consensus-on-hash.",
		Scenarios: ablationScenarios,
		Table:     ablationTable,
	})
}

type ablationVariant struct {
	name string
	mut  func(*scenario.TuningSpec)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"bidl-full", func(*scenario.TuningSpec) {}},
		{"no-speculation", func(t *scenario.TuningSpec) { t.DisableSpeculation = true }},
		{"no-multicast", func(t *scenario.TuningSpec) { t.DisableMulticast = true }},
		{"consensus-on-payload", func(t *scenario.TuningSpec) { t.ConsensusOnPayload = true }},
	}
}

func ablationScenarios(o Options) []scenario.Scenario {
	window := o.scaled(1200 * time.Millisecond)
	variants := ablationVariants()
	specs := make([]scenario.Scenario, len(variants))
	for i, v := range variants {
		sp := spec(scenario.FrameworkBIDL, v.name, o, 0.2, 0)
		v.mut(&sp.Tuning)
		sp.Load = load(o.rate(satBIDL*3/4), window)
		specs[i] = sp
	}
	return specs
}

func ablationTable(o Options, res []Result) *Table {
	t := &Table{
		ID:      "ablation",
		Title:   "BIDL ablations (setting A)",
		Columns: []string{"variant", "ktps", "avg_ms", "p99_ms", "spec_success"},
	}
	for i, v := range ablationVariants() {
		t.AddRow(v.name, ktps(res[i].Throughput), ms(res[i].AvgLatency), ms(res[i].P99), pct(res[i].SpecSuccess))
	}
	t.Notes = append(t.Notes,
		"no-speculation reverts to the sequential workflow: latency rises by roughly the execution phase")
	return t
}
