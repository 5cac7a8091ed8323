package bidl

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/bidl-framework/bidl/internal/trace"
)

// tracedRun executes a small traced BIDL deployment and returns the tracer
// plus how many transactions committed.
func tracedRun(t *testing.T) (*Tracer, int) {
	t.Helper()
	tr := NewTracer(TraceOptions{})
	_, sum := runSmall(t, smallSpec(FrameworkBIDL, 3000), ScenarioRunConfig{Tracer: tr})
	return tr, sum.Committed
}

// TestTraceDeterminism is the acceptance gate for the tracing layer: two
// same-seed traced runs must serialize to byte-identical Chrome traces and
// JSONL event streams. Any map-iteration order or wall-clock leak in the
// recorder or the exporters breaks this.
func TestTraceDeterminism(t *testing.T) {
	tr1, c1 := tracedRun(t)
	tr2, c2 := tracedRun(t)
	if c1 != c2 {
		t.Fatalf("committed counts diverge: %d vs %d", c1, c2)
	}
	var a, b bytes.Buffer
	if err := tr1.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same-seed Chrome traces are not byte-identical")
	}
	a.Reset()
	b.Reset()
	if err := tr1.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same-seed JSONL exports are not byte-identical")
	}
}

// TestTraceCoversCommittedTransactions checks the exported Chrome trace
// contains at least one complete transaction span per committed transaction
// and per-node counter tracks.
func TestTraceCoversCommittedTransactions(t *testing.T) {
	tr, committed := tracedRun(t)
	if committed == 0 {
		t.Fatal("no transactions committed")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var txSpans, counters int
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph == "X" && e.Cat == "tx":
			txSpans++
		case e.Ph == "C":
			counters++
		}
	}
	if txSpans < committed {
		t.Errorf("tx spans = %d, want >= %d committed transactions", txSpans, committed)
	}
	if counters == 0 {
		t.Error("no counter tracks in trace")
	}
	// The tracer saw the full lifecycle: a notified event per commit.
	var notified int
	for _, e := range tr.TxEvents() {
		if e.Stage == trace.StageNotified {
			notified++
		}
	}
	if notified < committed {
		t.Errorf("notified events = %d, want >= %d", notified, committed)
	}
}

// TestUntracedSystemUnaffected confirms that attaching a tracer does not
// change simulation outcomes: traced and untraced same-seed runs must agree
// on every summary metric.
func TestUntracedSystemUnaffected(t *testing.T) {
	run := func(traced bool) Summary {
		var rc ScenarioRunConfig
		if traced {
			rc.Tracer = NewTracer(TraceOptions{})
		}
		_, sum := runSmall(t, smallSpec(FrameworkBIDL, 3000), rc)
		return sum
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("tracing changed simulation outcome:\nuntraced %+v\ntraced   %+v", a, b)
	}
}
