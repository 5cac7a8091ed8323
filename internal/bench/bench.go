// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§6). Each experiment is registered under
// the paper's artifact ID (fig3, fig5, fig6, table2, table3, table4, fig7,
// fig8, fig9, fig10, plus design ablations) and produces a Table whose rows
// mirror what the paper reports. EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// Options tune experiment execution.
type Options struct {
	// Scale in (0,1] shrinks offered loads and measurement windows for
	// quick runs; 1.0 is the paper-faithful configuration.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Workers bounds how many sweep points run concurrently. 0 or 1 runs
	// serially; <0 uses GOMAXPROCS. Every sweep point owns a private Sim,
	// RNG, and Collector seeded identically in both modes, so tables are
	// byte-identical regardless of Workers.
	Workers int

	// events, when non-nil, accumulates virtual events executed by every
	// run launched under these options (set by Measure).
	events *atomic.Uint64

	// TraceSink, when non-nil, turns on per-run tracing: every framework
	// run gets a private Tracer, handed to the sink after the run
	// finishes. Sweep points may run concurrently (Workers), so the sink
	// must be safe for concurrent calls.
	TraceSink func(*trace.Tracer)
}

// logMu serializes progress lines from concurrent sweep workers.
var logMu sync.Mutex

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		logMu.Lock()
		fmt.Fprintf(o.Log, format+"\n", args...)
		logMu.Unlock()
	}
}

// addEvents credits executed virtual events to the harness counter.
func (o Options) addEvents(n uint64) {
	if o.events != nil {
		o.events.Add(n)
	}
}

// scaled shrinks a duration by the scale factor, with a floor.
func (o Options) scaled(d time.Duration) time.Duration {
	s := time.Duration(float64(d) * o.Scale)
	if s < 200*time.Millisecond {
		s = 200 * time.Millisecond
	}
	return s
}

// rate scales an offered load.
func (o Options) rate(r float64) float64 { return r * o.Scale }

// Experiment regenerates one of the paper's artifacts. It is pure data over
// the scenario layer: the table's static parts sit in the registration
// literal and Sweep describes the runs and their rows once, so a result is
// addressed as (experiment, group, row) and no second loop has to stay
// aligned with the first.
type Experiment struct {
	ID          string
	Paper       string
	Description string
	// Title, Columns and Notes are the table's static parts; Notes follow
	// whatever notes the groups add.
	Title   string
	Columns []string
	Notes   []string
	// Sweep returns the experiment's row groups in table order.
	Sweep func(Options) []Group
	// Traced runs every point with a tracer, for rows that read what it
	// records (Result.InterDCBytes, Result.Anatomy).
	Traced bool
}

// Group is the runs a set of table rows needs, one declarative spec per
// independent simulation, and the function that turns exactly those runs'
// results (in Runs order) into rows.
type Group struct {
	Runs []scenario.Scenario
	Rows func(t *Table, res []Result)
}

// Scenarios flattens the sweep into its specs in table order (what `bidl
// bench -dump-scenarios` emits).
func (e Experiment) Scenarios(o Options) []scenario.Scenario {
	return flatten(e.Sweep(o))
}

func flatten(groups []Group) []scenario.Scenario {
	var specs []scenario.Scenario
	for _, g := range groups {
		specs = append(specs, g.Runs...)
	}
	return specs
}

// Table assembles the experiment's table from results in Scenarios order.
func (e Experiment) Table(o Options, res []Result) *Table {
	return e.assemble(e.Sweep(o), res)
}

// assemble hands each group the slice of results its runs produced.
func (e Experiment) assemble(groups []Group, res []Result) *Table {
	t := &Table{ID: e.ID, Title: e.Title, Columns: e.Columns}
	for _, g := range groups {
		n := len(g.Runs)
		g.Rows(t, res[:n:n])
		res = res[n:]
	}
	t.Notes = append(t.Notes, e.Notes...)
	return t
}

// Run validates and executes every run of the sweep (concurrently per
// o.Workers) and assembles the table.
func (e Experiment) Run(o Options) (*Table, error) {
	groups := e.Sweep(o)
	specs := flatten(groups)
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("bench: %s sweep point %d (%s): %w", e.ID, i, specs[i].Name, err)
		}
	}
	errs := make([]error, len(specs))
	tasks := make([]func() Result, len(specs))
	for i := range specs {
		sp := specs[i]
		tasks[i] = func() (r Result) {
			o.logf("%s: %s", e.ID, sp.Name)
			r, errs[i] = runScenario(o, sp, e.Traced)
			return r
		}
	}
	res := Gather(o.Workers, tasks)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: %s sweep point %d (%s): %w", e.ID, i, specs[i].Name, err)
		}
	}
	return e.assemble(groups, res), nil
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Get returns the experiment registered under id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// helpers ---------------------------------------------------------------

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func ktps(v float64) string { return fmt.Sprintf("%.2f", v/1000) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func mb(bytes uint64) string { return fmt.Sprintf("%.2f", float64(bytes)/1e6) }
