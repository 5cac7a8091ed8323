package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/bidl-framework/bidl"
)

// reportCmd reproduces the latency-anatomy breakdown offline from a raw
// trace export: feed it the file `bidl run -trace-jsonl` wrote and it prints
// the tables that run's -anatomy flag would have — byte-identical, because
// both feed the same events into the same decomposition (the JSONL schema is
// frozen; DESIGN.md §12).
//
//	bidl run -rate 4000 -duration 300ms -trace-jsonl run.jsonl
//	bidl report -trace-jsonl run.jsonl -csv anatomy.csv
//	bidl report -trace-jsonl run.jsonl -scenario chaos.json   # fault windows
//
// With -scenario, the scenario's fault schedule annotates the report with
// per-fault-window latency distributions, as the live run's did.
func reportCmd(args []string, stdout, stderr io.Writer) int {
	c := newCLI("report", stdout, stderr)
	var (
		jsonlPath = c.String("trace-jsonl", "", "raw trace export to analyze (required)")
		csvPath   = c.String("csv", "", "also write the breakdown as CSV to this file")
		scenPath  = c.String("scenario", "", "scenario JSON whose fault schedule labels the report's windows")
		outPath   = c.String("out", "-", "write the human-readable report here (\"-\" = stdout)")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *jsonlPath == "" {
		return c.fail(2, errors.New("usage: bidl report -trace-jsonl <file> [-csv file] [-scenario file] [-out file]"))
	}
	data, err := readTraceJSONL(*jsonlPath)
	if err != nil {
		return c.fail(1, err)
	}
	var opts bidl.AnatomyOptions
	if *scenPath != "" {
		spec, err := loadScenario(*scenPath)
		if err != nil {
			return c.fail(1, err)
		}
		opts.Windows = spec.AnatomyWindows()
	}
	rep := bidl.ComputeAnatomy(data.TxEvents, data.PhaseEvents, opts)
	if *outPath == "-" {
		err = rep.Render(stdout)
	} else {
		err = writeFile(*outPath, rep.Render)
	}
	if err == nil && *csvPath != "" {
		err = writeFile(*csvPath, rep.CSV)
	}
	if err != nil {
		return c.fail(1, err)
	}
	return 0
}

// readTraceJSONL decodes and validates a -trace-jsonl export.
func readTraceJSONL(path string) (*bidl.TraceJSONL, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := bidl.ValidateTraceJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return data, nil
}

// traceCheckCmd validates trace exports (`make trace-smoke`).
//
//	bidl trace-check trace.json          # what `bidl run -trace` wrote
//	bidl trace-check -jsonl trace.jsonl  # what `bidl run -trace-jsonl` wrote
//
// A Chrome trace-event file must parse, declare millisecond display units and
// hold at least one complete ("X") transaction span and one counter ("C")
// track, so it stays loadable in Perfetto / chrome://tracing. A JSONL export
// must match the frozen schema (DESIGN.md §12) line by line, with every
// transaction's stage timestamps non-negative and non-decreasing — what
// `bidl report` relies on.
func traceCheckCmd(args []string, stdout, stderr io.Writer) int {
	c := newCLI("trace-check", stdout, stderr)
	jsonl := c.Bool("jsonl", false, "validate a raw -trace-jsonl export instead of a Chrome trace")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if c.NArg() != 1 {
		return c.fail(2, errors.New("usage: bidl trace-check [-jsonl] <trace-file>"))
	}
	check := checkChromeTrace
	if *jsonl {
		check = checkJSONL
	}
	line, err := check(c.Arg(0))
	if err != nil {
		return c.fail(1, err)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func checkJSONL(path string) (string, error) {
	data, err := readTraceJSONL(path)
	if err != nil {
		return "", err
	}
	if len(data.TxEvents) == 0 {
		return "", errors.New("no tx events — no transaction made it through the pipeline")
	}
	return fmt.Sprintf("ok: %d tx events, %d phase events, %d node lines, %d link lines",
		len(data.TxEvents), len(data.PhaseEvents), data.NodeLines, data.LinkLines), nil
}

func checkChromeTrace(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return "", fmt.Errorf("invalid JSON: %w", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		return "", fmt.Errorf("displayTimeUnit = %q, want \"ms\"", tf.DisplayTimeUnit)
	}
	var spans, counters, meta, instants int
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur < 0 || e.TS < 0 {
				return "", fmt.Errorf("span %q has negative ts/dur", e.Name)
			}
			spans++
		case "C":
			counters++
		case "M":
			meta++
		case "i":
			instants++
		default:
			return "", fmt.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	switch {
	case spans == 0:
		return "", errors.New("no complete (\"X\") spans — no transaction made it through the pipeline")
	case counters == 0:
		return "", errors.New("no counter (\"C\") tracks — node telemetry missing")
	}
	return fmt.Sprintf("ok: %d events (%d spans, %d counters, %d metadata, %d instants)",
		len(tf.TraceEvents), spans, counters, meta, instants), nil
}
