package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

// breakdownRows are Tables 2 and 3 with the stages each row reads.
var breakdownRows = []struct {
	id     string
	phases func(*anatomy.Report) (int, []time.Duration)
	reads  []trace.Stage
}{
	{"table2", table2Phases, []trace.Stage{trace.StageSubmit, trace.StageExecuted, trace.StageAgreed,
		trace.StagePersisted, trace.StageNotified}},
	{"table3", table3Phases, []trace.Stage{trace.StageSubmit, trace.StageSequenced, trace.StageAgreed,
		trace.StageDelivered, trace.StageExecuted, trace.StagePersisted, trace.StageNotified}},
}

// mark encodes one lifecycle mark of FuzzBreakdownRows' input: transaction,
// stage and time in µs, one byte each.
func mark(tx byte, s trace.Stage, us byte) []byte { return []byte{tx, byte(s), us} }

// FuzzBreakdownRows derives both tables' rows from drawn lifecycle streams,
// with marks missing, repeated and out of order. A row must not panic, must
// average over one population (the complete transactions carrying every
// stage it reads, counted here from the raw marks) and so add up exactly:
// Table 3's P4 is P2 + P3, each end_to_end its formula.
func FuzzBreakdownRows(f *testing.F) {
	var full, seeds []byte
	for i, s := range []trace.Stage{trace.StageSubmit, trace.StageSequenced, trace.StageDelivered,
		trace.StageExecStart, trace.StageExecuted, trace.StagePersisted, trace.StageAgreed, trace.StageNotified} {
		full = append(full, mark(0, s, byte(10*i))...)
	}
	f.Add(full)
	// A second complete transaction without its executed mark, a third
	// never notified, a fourth executed before delivery and notified before
	// agreement, and a repeated mark.
	seeds = append(seeds, full...)
	for _, s := range []trace.Stage{trace.StageSubmit, trace.StageSequenced, trace.StageDelivered,
		trace.StagePersisted, trace.StageAgreed, trace.StageNotified} {
		seeds = append(seeds, mark(1, s, byte(5+20*s))...)
	}
	seeds = append(seeds, mark(2, trace.StageSubmit, 3)...)
	seeds = append(seeds, mark(2, trace.StageExecuted, 9)...)
	for _, m := range [][2]byte{{byte(trace.StageNotified), 90}, {byte(trace.StageSubmit), 50},
		{byte(trace.StageExecuted), 55}, {byte(trace.StageDelivered), 60}, {byte(trace.StageSequenced), 52},
		{byte(trace.StagePersisted), 70}, {byte(trace.StageAgreed), 95}} {
		seeds = append(seeds, mark(3, trace.Stage(m[0]), m[1])...)
	}
	seeds = append(seeds, mark(0, trace.StageExecuted, 200)...)
	f.Add(seeds)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var events []trace.TxEvent
		for ; len(b) >= 3; b = b[3:] {
			events = append(events, trace.TxEvent{Tx: trace.TxID{b[0] % 8},
				Stage: trace.Stage(b[1] % byte(trace.NumStages)), At: time.Duration(b[2]) * time.Microsecond})
		}
		first := map[trace.TxID]map[trace.Stage]time.Duration{}
		for _, e := range events {
			if first[e.Tx] == nil {
				first[e.Tx] = map[trace.Stage]time.Duration{}
			}
			if _, ok := first[e.Tx][e.Stage]; !ok {
				first[e.Tx][e.Stage] = e.At
			}
		}
		rep := anatomy.Compute(events, nil, anatomy.Options{})
		for _, row := range breakdownRows {
			wantN, wantE2E := 0, time.Duration(0)
		txs:
			for _, at := range first {
				for _, s := range row.reads {
					if _, ok := at[s]; !ok {
						continue txs
					}
				}
				wantN++
				wantE2E += at[trace.StageNotified] - at[trace.StageSubmit]
			}
			n, c := row.phases(rep)
			if n != wantN || c[len(c)-1] != wantE2E {
				t.Fatalf("%s: population %d with e2e total %v, want %d with %v", row.id, n, c[len(c)-1], wantN, wantE2E)
			}
			switch row.id {
			case "table2":
				if c[3] != c[0]+c[1]+c[2] {
					t.Fatalf("table2: end_to_end %v != P1+P2+P3 %v", c[3], c[0]+c[1]+c[2])
				}
			case "table3":
				if c[3] != c[1]+c[2] || c[5] != max(c[0], c[3])+c[4] {
					t.Fatalf("table3: P4 %v vs P2+P3 %v, end_to_end %v vs max(P1,P4)+P5 %v",
						c[3], c[1]+c[2], c[5], max(c[0], c[3])+c[4])
				}
			}
			e, _ := Get(row.id)
			tab := &Table{}
			e.Sweep(goldenOptions())[0].Rows(tab, []Result{{Anatomy: rep}})
			if len(tab.Rows) != 1 || len(tab.Rows[0]) != len(e.Columns) {
				t.Fatalf("%s: rendered %q for columns %q", row.id, tab.Rows, e.Columns)
			}
		}
	})
}

// A traced point whose tracer overwrote lifecycle events fails the
// experiment instead of averaging what the ring kept into a row.
func TestTracedPointRejectsDroppedEvents(t *testing.T) {
	defer func(c int) { spanCapacity = c }(spanCapacity)
	spanCapacity = 64
	e, _ := Get("table3")
	tab, err := e.Run(goldenOptions())
	if err == nil || !strings.Contains(err.Error(), "overwrote") || tab != nil {
		t.Fatalf("Run = %v, %v; want no table and the overwritten lifecycle events named", tab, err)
	}
}

// Every traced point at full scale fits its lifecycle-event ring: a
// transaction records each stage at most once, so a point offering
// ⌈rate × window⌉ transactions records at most that many times NumStages
// events. The drop guard above catches an overflow only when a full-scale run
// is made, which no other test does; this budget check runs nothing.
func TestTracedPointsFitTheRing(t *testing.T) {
	for _, e := range All() {
		if !e.Traced {
			continue
		}
		for _, sp := range e.Scenarios(Options{Scale: 1, Seed: 1}) {
			txs := int(math.Ceil(sp.Load.Rate * sp.Load.Window.D().Seconds()))
			if events := txs * int(trace.NumStages); events > spanCapacity {
				t.Errorf("%s %q: %d transactions may record %d lifecycle events, the ring holds %d",
					e.ID, sp.Name, txs, events, spanCapacity)
			}
		}
	}
}
