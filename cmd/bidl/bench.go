package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/bidl-framework/bidl"
)

// benchCmd regenerates the paper's evaluation artifacts:
//
//	bidl bench                              # list the experiments
//	bidl bench -run fig3                    # one experiment, full scale
//	bidl bench -run all -scale 0.25 -j 4    # quick pass, 4 sweep points at a time
//	bidl bench -run table4 -csv out.csv
//	bidl bench -run fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	bidl bench -dump-scenarios -run fig5    # the sweep as declarative JSON
//
// -dump-scenarios prints every sweep point of the selected experiments (all
// of them without -run) as scenario JSON that `bidl run -scenario` replays,
// and runs nothing. Sweep points are independent seeded simulations, so -j
// changes only wall-clock time: tables are byte-identical to a serial run.
// -cpuprofile/-memprofile capture the harness itself (`make profile`).
func benchCmd(args []string, stdout, stderr io.Writer) int {
	c := newCLI("bench", stdout, stderr)
	var (
		runID = c.String("run", "", "experiment ID to run (or \"all\")")
		dump  = c.Bool("dump-scenarios", false, "print the selected experiments' sweep points as scenario JSON and exit")
		scale = c.Float64("scale", 1.0, "load/duration scale in (0,1]")
		sim   = c.simFlags(1, "concurrent sweep points (1 = serial, -1 = one per CPU)")
		csv   = c.String("csv", "", "also write results as CSV to this file")
		quiet = c.Bool("q", false, "suppress progress logging")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}

	stopProfiles, err := c.profile(sim)
	if err != nil {
		return c.fail(1, err)
	}
	defer stopProfiles()

	if *runID == "" && !*dump {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range bidl.Experiments() {
			fmt.Fprintf(stdout, "  %-8s %-10s %s\n", e.ID, e.Paper, e.Description)
		}
		fmt.Fprintln(stdout, "\nrun one with: bidl bench -run <id>")
		return 0
	}

	opts := bidl.BenchOptions{Scale: *scale, Seed: *sim.seed, Workers: *sim.jobs}
	if !*quiet {
		opts.Log = stderr
	}
	byID := make(map[string]bidl.Experiment)
	var ids []string
	for _, e := range bidl.Experiments() {
		byID[e.ID] = e
		ids = append(ids, e.ID)
	}
	if *runID != "all" && *runID != "" {
		ids = []string{*runID}
	}

	if *dump {
		// One JSON array of {id, paper, scenarios} entries in registry order;
		// each scenario is a spec `bidl run -scenario` accepts verbatim.
		type entry struct {
			ID        string          `json:"id"`
			Paper     string          `json:"paper"`
			Scenarios []bidl.Scenario `json:"scenarios"`
		}
		entries := make([]entry, 0, len(ids))
		for _, id := range ids {
			e, ok := byID[id]
			if !ok {
				return c.fail(1, fmt.Errorf("unknown experiment %q", id))
			}
			entries = append(entries, entry{ID: e.ID, Paper: e.Paper, Scenarios: e.Scenarios(opts)})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(entries); err != nil {
			return c.fail(1, err)
		}
		return 0
	}

	var csvOut *os.File
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return c.fail(1, err)
		}
		defer f.Close() // error paths; the success path checks Close below
		csvOut = f
	}
	for _, id := range ids {
		table, stats, err := bidl.MeasureExperiment(id, opts)
		if err != nil {
			return c.fail(1, err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "%s: %.2fs wall, %d virtual events (%.0f events/s)\n",
				id, stats.WallSeconds, stats.VirtualEvents, stats.EventsPerSec)
		}
		table.Render(stdout)
		if csvOut != nil {
			fmt.Fprintf(csvOut, "# %s\n", table.ID)
			table.CSV(csvOut)
		}
	}
	if csvOut != nil {
		if err := csvOut.Close(); err != nil {
			return c.fail(1, err)
		}
	}
	return 0
}
