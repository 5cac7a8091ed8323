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
	// holds reports the measured value and whether it lies in the band.
	holds func(tab *Table) (measured string, ok bool)
	// counterfeit edits a copy of the table into one the claim must reject:
	// the negative control that keeps a row from passing on anything.
	counterfeit func(tab *Table)
}

var claims = []claimRow{
	{
		experiment: "fig9", group: "bidl",
		claim: "inter-DC traffic does not grow as the inter-DC bandwidth shrinks",
		paper: "each payload crosses each inter-DC pipe once (§6.4)",
		band:  "max/min of bidl_interdc_mb <= 1.05 over 10..0.5 Gbps",
		holds: func(tab *Table) (string, bool) {
			mb := column(tab, "bidl_interdc_mb")
			r := slices.Max(mb) / slices.Min(mb)
			return fmt.Sprintf("max/min %.3f", r), r <= 1.05
		},
		// Bytes that grow where the pipe is tight, as retransmissions over a
		// saturated pipe would.
		counterfeit: func(tab *Table) {
			gbps := column(tab, "bandwidth_gbps")
			scale(tab, "bidl_interdc_mb", func(i int, v float64) float64 { return v * 10 / gbps[i] })
		},
	},
	{
		experiment: "fig9", group: "bidl vs bidl_opt_disabled",
		claim: "without multicast and consensus-on-hash a payload crosses once per receiver",
		paper: "not reported as a number; opt-disabled multiplies inter-DC traffic (§6.4)",
		band:  "opt_disabled_interdc_mb >= 5x bidl_interdc_mb in every row",
		holds: func(tab *Table) (string, bool) {
			bidl, off := column(tab, "bidl_interdc_mb"), column(tab, "opt_disabled_interdc_mb")
			r := off[0] / bidl[0]
			for i := range bidl {
				r = min(r, off[i]/bidl[i])
			}
			return fmt.Sprintf("min ratio %.2fx", r), r >= 5
		},
		counterfeit: func(tab *Table) {
			bidl := column(tab, "bidl_interdc_mb")
			scale(tab, "opt_disabled_interdc_mb", func(i int, _ float64) float64 { return bidl[i] })
		},
	},
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

// TestFidelityClaims evaluates every claim row on its experiment's
// golden-scale table, logs the claims table, and checks each row's negative
// control: the same row on its counterfeit copy of the table must fail.
func TestFidelityClaims(t *testing.T) {
	tables := map[string]*Table{}
	var report strings.Builder
	w := tabwriter.NewWriter(&report, 0, 0, 1, ' ', tabwriter.Debug)
	fmt.Fprintln(w, "experiment\tgroup\tclaim\tpaper\tband\tstatus")
	for _, c := range claims {
		tab := tables[c.experiment]
		if tab == nil {
			var err error
			if tab, _, err = Measure(c.experiment, goldenOptions()); err != nil {
				t.Fatal(err)
			}
			tables[c.experiment] = tab
		}
		measured, ok := c.holds(tab)
		status := "holds, " + measured
		if !ok {
			status = "FAILS, " + measured
			t.Errorf("%s %s: %q outside %q (%s)", c.experiment, c.group, c.claim, c.band, measured)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", c.experiment, c.group, c.claim, c.paper, c.band, status)

		fake := &Table{Columns: tab.Columns}
		for _, row := range tab.Rows {
			fake.Rows = append(fake.Rows, slices.Clone(row))
		}
		c.counterfeit(fake)
		if measured, ok := c.holds(fake); ok {
			t.Errorf("%s %s: %q holds on its counterfeit table too (%s)", c.experiment, c.group, c.claim, measured)
		}
	}
	w.Flush()
	t.Log("\n" + report.String())
}
