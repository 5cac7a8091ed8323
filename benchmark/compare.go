package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// Row statuses of a comparison.
const (
	statusIdentical  = "identical"
	statusOK         = "ok"
	statusUnresolved = "unresolved" // a side's own run-to-run range is wider than the bound
	statusRegression = "REGRESSION"
	statusMissing    = "missing"
	statusLayer      = "layer" // per-layer metrics carry no bound
)

type compareRow struct {
	Workload, Metric string
	A, B             float64
	Worse            float64 // share of A by which B is worse; negative when better
	Bound            float64
	Status           string
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for every workload and metric, how results b differ
// from results a, and returns 1 if an end-to-end metric got worse by more
// than its bound.
func compareFiles(w io.Writer, specPath, aPath, bPath string) int {
	var spec benchSpec
	var a, b results
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
			return 2
		}
	}
	fmt.Fprintf(w, "a: %s\nb: %s\n", a.Env, b.Env)
	rows := compareResults(spec, a, b)
	counts := map[string]int{}
	// The gated table first, in one piece; the per-layer deltas that explain
	// it after.
	for _, r := range rows {
		counts[r.Status]++
		if r.Status != statusLayer {
			fmt.Fprintf(w, "%-10s %-34s %14.4f %14.4f %+8.2f%% of %5.1f%%  %s\n",
				r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Bound, r.Status)
		}
	}
	for _, r := range rows {
		if r.Status == statusLayer {
			fmt.Fprintf(w, "%-10s %-34s %14.4f %14.4f %+8.2f%%  %s\n", r.Workload, r.Metric, r.A, r.B, 100*r.Worse, r.Status)
		}
	}
	fmt.Fprintf(w, "end to end: %d identical, %d ok, %d unresolved, %d missing, %d regressions\n",
		counts[statusIdentical], counts[statusOK], counts[statusUnresolved], counts[statusMissing], counts[statusRegression])
	if counts[statusRegression]+counts[statusMissing] > 0 {
		return 1
	}
	return 0
}

// worseBy is the share of a by which b is worse, given the direction.
func worseBy(a, b float64, better string) float64 {
	d := b - a
	if better == higher {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a)
}

// rangeShare is a value's own run-to-run range as a share of the value.
func rangeShare(v value) float64 {
	if v.Min == nil || v.Max == nil || v.Value == 0 {
		return 0
	}
	return (*v.Max - *v.Min) / math.Abs(v.Value)
}

func compareResults(spec benchSpec, a, b results) []compareRow {
	var rows []compareRow
	names := make([]string, 0, len(a.Workloads))
	for wl := range a.Workloads {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		am, bm := a.Workloads[wl], b.Workloads[wl]
		for _, d := range spec.EndToEnd {
			av, aok := am[d.Name]
			bv, bok := bm[d.Name]
			r := compareRow{Workload: wl, Metric: d.Name, A: av.Value, B: bv.Value, Bound: d.Bound}
			switch r.Worse = worseBy(av.Value, bv.Value, d.Better); {
			case !aok || !bok:
				r.Status = statusMissing
			case rangeShare(av) > d.Bound || rangeShare(bv) > d.Bound:
				r.Status = statusUnresolved
			case r.Worse > d.Bound:
				r.Status = statusRegression
			case av.Value == bv.Value:
				r.Status = statusIdentical
			default:
				r.Status = statusOK
			}
			rows = append(rows, r)
		}
		for _, d := range spec.PerLayer {
			av, bv := am[d.Name], bm[d.Name]
			if av.Value == bv.Value {
				continue
			}
			rows = append(rows, compareRow{Workload: wl, Metric: d.Name, A: av.Value, B: bv.Value,
				Worse: worseBy(av.Value, bv.Value, d.Better), Status: statusLayer})
		}
	}
	return rows
}
