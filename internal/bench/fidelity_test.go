package bench

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"
)

// The paper-fidelity claims table: each row names one claim the paper makes
// about an experiment (experiment, row group, claim), the paper's own value,
// and the band a measured table must fall in. Rows are evaluated on the
// golden-scale tables, so `go test` checks the mechanism a figure shows and
// not only its bytes; the status column is the outcome.
type claimRow struct {
	experiment, group, claim, paper, band string
	// deviation, when set, is why the measured table departs from the
	// paper: the row is known-deviation, its band must fail on the measured
	// table and accept the counterfeit, a table that matches the paper.
	deviation string
	// holds reports the measured value and whether it lies in the band.
	holds func(get tableSet) (measured string, ok bool)
	// counterfeit edits copies of the tables into ones the claim must
	// reject: the negative control that keeps a row from passing on
	// anything (for a deviation row, ones it must accept).
	counterfeit func(get tableSet)
}

// tableSet returns an experiment's table by id.
type tableSet func(id string) *Table

var claims = []claimRow{
	{
		experiment: "fig9", group: "bidl",
		claim: "inter-DC traffic does not grow as the inter-DC bandwidth shrinks",
		paper: "each payload crosses each inter-DC pipe once (§6.4)",
		band:  "max/min of bidl_interdc_mb <= 1.05 over 10..0.5 Gbps",
		holds: func(get tableSet) (string, bool) {
			mb := column(get("fig9"), "bidl_interdc_mb")
			r := slices.Max(mb) / slices.Min(mb)
			return fmt.Sprintf("max/min %.3f", r), r <= 1.05
		},
		// Bytes that grow where the pipe is tight, as retransmissions over a
		// saturated pipe would.
		counterfeit: func(get tableSet) {
			tab := get("fig9")
			gbps := column(tab, "bandwidth_gbps")
			scale(tab, "bidl_interdc_mb", func(i int, v float64) float64 { return v * 10 / gbps[i] })
		},
	},
	{
		experiment: "fig9", group: "bidl vs bidl_opt_disabled",
		claim: "without multicast and consensus-on-hash a payload crosses once per receiver",
		paper: "not reported as a number; opt-disabled multiplies inter-DC traffic (§6.4)",
		band:  "opt_disabled_interdc_mb >= 5x bidl_interdc_mb in every row",
		holds: func(get tableSet) (string, bool) {
			tab := get("fig9")
			bidl, off := column(tab, "bidl_interdc_mb"), column(tab, "opt_disabled_interdc_mb")
			r := off[0] / bidl[0]
			for i := range bidl {
				r = min(r, off[i]/bidl[i])
			}
			return fmt.Sprintf("min ratio %.2fx", r), r >= 5
		},
		counterfeit: func(get tableSet) {
			tab := get("fig9")
			bidl := column(tab, "bidl_interdc_mb")
			scale(tab, "opt_disabled_interdc_mb", func(i int, _ float64) float64 { return bidl[i] })
		},
	},
	// Counterfeits: the end_to_end cells the collector's phase timers gave
	// these golden tables, whose consensus timer began at the leader's
	// proposal and so left the batching wait out.
	gapRow("table2", []float64{1.38, 1.62, 2.02, 2.86, 4.47, 7.81}),
	gapRow("table3", []float64{7.97, 8.45, 9.25, 11.97, 15.61, 23.50}),
	risesRow("table2", "P2_consensus", "consensus 10.4→16.2 ms over 4→97 orgs"),
	risesRow("table3", "P1_consensus", "consensus 10.3→16.4 ms over 4→97 orgs"),
	{
		experiment: "table3", group: "P3_persist",
		claim: "persist is a short round once the result vector is out",
		paper: "persist 0.5→2.1 ms over 4→97 orgs",
		band:  "P3_persist <= 4.2 ms (twice the paper's largest) at every org count",
		deviation: "below saturation every block is partial, and persist absorbs the wait " +
			"for the block holding the transaction to be proposed (EXPERIMENTS.md)",
		holds: func(get tableSet) (string, bool) {
			v := column(get("table3"), "P3_persist")
			return fmt.Sprintf("%.2f→%.2f ms", v[0], v[len(v)-1]), slices.Max(v) <= 4.2
		},
		// The paper's column, 0.5 rising evenly to 2.1.
		counterfeit: func(get tableSet) {
			tab := get("table3")
			scale(tab, "P3_persist", func(i int, _ float64) float64 { return 0.5 + 1.6*float64(i)/float64(len(tab.Rows)-1) })
		},
	},
	{
		experiment: "table3", group: "bidl vs fastfabric (table2)",
		claim: "BIDL's end-to-end latency is below FastFabric's at every org count",
		paper: "e2e 62.5→19.3 ms (BIDL) vs 71.0→29.6 ms (FastFabric)",
		band:  "table3 end_to_end < table2 end_to_end at every org count",
		deviation: "the paper's FastFabric column is a saturated validate queue (51.5 ms at 4 orgs) " +
			"that the golden-scale points never reach; below saturation BIDL's commit also waits for the persist quorum",
		holds: func(get tableSet) (string, bool) {
			bidl, ff := column(get("table3"), "end_to_end"), column(get("table2"), "end_to_end")
			lo, hi, ok := math.Inf(1), math.Inf(-1), true
			for i := range bidl {
				d := bidl[i] - ff[i]
				lo, hi, ok = min(lo, d), max(hi, d), ok && d < 0
			}
			return fmt.Sprintf("BIDL minus FastFabric %+.2f..%+.2f ms", lo, hi), ok
		},
		counterfeit: func(get tableSet) {
			ff := column(get("table2"), "end_to_end")
			scale(get("table3"), "end_to_end", func(i int, _ float64) float64 { return 0.9 * ff[i] })
		},
	},
}

// gapRow checks a latency breakdown against the run's own mean: its phases
// must account for where the latency went. Its counterfeit puts oldE2E, a
// formula that left time out, next to the measured column.
func gapRow(id string, oldE2E []float64) claimRow {
	return claimRow{
		experiment: id, group: "end_to_end vs measured_e2e",
		claim: "the phase formula accounts for the run's mean submit→notified latency",
		paper: "the e2e column is a formula over the phase columns (§6)",
		band:  "end_to_end within 10 % of measured_e2e at every org count",
		holds: func(get tableSet) (string, bool) {
			tab := get(id)
			e2e, meas := column(tab, "end_to_end"), column(tab, "measured_e2e")
			worst := 0.0
			for i := range e2e {
				worst = max(worst, math.Abs(e2e[i]-meas[i])/meas[i])
			}
			return fmt.Sprintf("worst gap %.1f %%", worst*100), worst <= 0.10
		},
		counterfeit: func(get tableSet) {
			scale(get(id), "end_to_end", func(i int, _ float64) float64 { return oldE2E[i] })
		},
	}
}

// risesRow checks that a consensus column rises strictly with the number of
// organizations; its counterfeit is the column reversed.
func risesRow(id, col, paper string) claimRow {
	return claimRow{
		experiment: id, group: col,
		claim: "consensus latency rises with the number of organizations",
		paper: paper,
		band:  col + " strictly increasing over 4→97 orgs",
		holds: func(get tableSet) (string, bool) {
			v := column(get(id), col)
			ok := true
			for i := 1; i < len(v); i++ {
				ok = ok && v[i] > v[i-1]
			}
			return fmt.Sprintf("%.2f→%.2f ms", v[0], v[len(v)-1]), ok
		},
		counterfeit: func(get tableSet) {
			tab := get(id)
			v := column(tab, col)
			scale(tab, col, func(i int, _ float64) float64 { return v[len(v)-1-i] })
		},
	}
}

// column parses the named column of tab; a missing column or an unparsable
// cell reads as NaN, which fails every band.
func column(tab *Table, name string) []float64 {
	j := slices.Index(tab.Columns, name)
	out := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		out[i] = math.NaN()
		if j >= 0 {
			if v, err := strconv.ParseFloat(row[j], 64); err == nil {
				out[i] = v
			}
		}
	}
	return out
}

// scale rewrites the named column cell by cell.
func scale(tab *Table, name string, f func(i int, v float64) float64) {
	j := slices.Index(tab.Columns, name)
	for i, v := range column(tab, name) {
		tab.Rows[i][j] = fmt.Sprintf("%.2f", f(i, v))
	}
}

// TestFidelityClaims evaluates every claim row on the golden-scale tables it
// reads, logs the claims table, and checks each row's negative control: on
// its counterfeit copies of those tables the row must fail (a deviation row,
// whose band fails on the measured tables, must hold).
func TestFidelityClaims(t *testing.T) {
	tables := map[string]*Table{}
	get := func(id string) *Table {
		if tables[id] == nil {
			tab, _, err := Measure(id, goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			tables[id] = tab
		}
		return tables[id]
	}
	var report strings.Builder
	w := tabwriter.NewWriter(&report, 0, 0, 1, ' ', tabwriter.Debug)
	fmt.Fprintln(w, "experiment\tgroup\tclaim\tpaper\tband\tstatus")
	for _, c := range claims {
		measured, ok := c.holds(get)
		status := "holds, " + measured
		switch {
		case c.deviation != "" && ok:
			t.Errorf("%s %s: known deviation %q now holds (%s): drop its deviation", c.experiment, c.group, c.claim, measured)
		case c.deviation != "":
			status = "known-deviation, " + measured + ": " + c.deviation
		case !ok:
			status = "FAILS, " + measured
			t.Errorf("%s %s: %q outside %q (%s)", c.experiment, c.group, c.claim, c.band, measured)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", c.experiment, c.group, c.claim, c.paper, c.band, status)

		fakes := map[string]*Table{}
		fake := func(id string) *Table {
			if fakes[id] == nil {
				tab := get(id)
				fakes[id] = &Table{Columns: tab.Columns}
				for _, row := range tab.Rows {
					fakes[id].Rows = append(fakes[id].Rows, slices.Clone(row))
				}
			}
			return fakes[id]
		}
		c.counterfeit(fake)
		if measured, ok := c.holds(fake); ok == (c.deviation == "") {
			t.Errorf("%s %s: %q gives the same verdict on its counterfeit tables (%s)", c.experiment, c.group, c.claim, measured)
		}
	}
	w.Flush()
	t.Log("\n" + report.String())
}
