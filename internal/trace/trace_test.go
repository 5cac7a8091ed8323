package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func txid(b byte) TxID {
	var id TxID
	id[0] = b
	return id
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every recording and query method must be nil-receiver safe.
	tr.RegisterNode(0, "n", 0)
	tr.TxStage(txid(1), StageSubmit, 0, time.Millisecond)
	tr.Phase("prepared", 0, 1, 2, time.Millisecond)
	tr.Busy(0, 0, time.Millisecond)
	tr.Queue(0, 0, 3)
	tr.Sent(0, 0, 100)
	tr.Received(0, 0, 100)
	tr.Dropped(0, 0)
	tr.Wire(0, 1, 0, 100)
	if tr.Horizon() != 0 || tr.NumNodes() != 0 || tr.TxEvents() != nil || tr.InterDCBytes() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil tracer export is not valid JSON: %v", err)
	}
	buf.Reset()
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	buf.Reset()
	tr.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil summary = %q, want disabled notice", buf.String())
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"submit", "sequenced", "delivered", "exec-start", "executed", "persisted", "agreed", "notified"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
		if s, ok := StageFromName(w); !ok || s != Stage(i) {
			t.Errorf("StageFromName(%q) = %v,%v, want %d,true", w, s, ok, i)
		}
	}
	if got := Stage(200).String(); got != "stage200" {
		t.Errorf("out-of-range stage = %q", got)
	}
	if _, ok := StageFromName("no-such-stage"); ok {
		t.Error("StageFromName accepted an unknown label")
	}
}

func TestRingWraparound(t *testing.T) {
	r := ring[int]{limit: 4}
	for i := 0; i < 10; i++ {
		r.add(i)
	}
	got := r.items()
	want := []int{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("items len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("items = %v, want %v", got, want)
		}
	}
	if r.dropped != 6 {
		t.Fatalf("dropped = %d, want 6", r.dropped)
	}
}

func TestTracerRingOverflowCounts(t *testing.T) {
	tr := New(Options{SpanCapacity: 8})
	for i := 0; i < 20; i++ {
		tr.TxStage(txid(byte(i)), StageSubmit, 0, time.Duration(i)*time.Millisecond)
	}
	if got := len(tr.TxEvents()); got != 8 {
		t.Fatalf("buffered events = %d, want 8", got)
	}
	if tr.DroppedTxEvents() != 12 {
		t.Fatalf("dropped = %d, want 12", tr.DroppedTxEvents())
	}
	// Recent history survives: the last event must be present.
	evs := tr.TxEvents()
	if evs[len(evs)-1].At != 19*time.Millisecond {
		t.Fatalf("last buffered event at %v, want 19ms", evs[len(evs)-1].At)
	}
}

func TestBusySplitsAcrossBuckets(t *testing.T) {
	tr := New(Options{BucketWidth: 10 * time.Millisecond})
	// 25ms of work starting at 5ms spans buckets 0, 1, and 2: 5 + 10 + 10.
	tr.Busy(3, 5*time.Millisecond, 25*time.Millisecond)
	b := tr.NodeBuckets(3)
	if len(b) != 3 {
		t.Fatalf("bucket count = %d, want 3", len(b))
	}
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	var total time.Duration
	for i, w := range want {
		if b[i].Busy != w {
			t.Errorf("bucket[%d].Busy = %v, want %v", i, b[i].Busy, w)
		}
		total += b[i].Busy
	}
	if total != 25*time.Millisecond {
		t.Errorf("total busy = %v, want 25ms", total)
	}
	// No bucket may exceed its width (busy fraction > 100%).
	for i, bk := range b {
		if bk.Busy > 10*time.Millisecond {
			t.Errorf("bucket[%d] overfull: %v", i, bk.Busy)
		}
	}
}

func TestQueueRecordsMaxPerBucket(t *testing.T) {
	tr := New(Options{BucketWidth: 10 * time.Millisecond})
	tr.Queue(0, time.Millisecond, 3)
	tr.Queue(0, 2*time.Millisecond, 7)
	tr.Queue(0, 3*time.Millisecond, 5)
	tr.Queue(0, 12*time.Millisecond, 2)
	b := tr.NodeBuckets(0)
	if b[0].MaxQueue != 7 {
		t.Errorf("bucket0 MaxQueue = %d, want 7", b[0].MaxQueue)
	}
	if b[1].MaxQueue != 2 {
		t.Errorf("bucket1 MaxQueue = %d, want 2", b[1].MaxQueue)
	}
}

func TestTrafficAndLinkBuckets(t *testing.T) {
	tr := New(Options{BucketWidth: 10 * time.Millisecond})
	tr.RegisterNode(1, "cn0", 0)
	tr.Sent(1, time.Millisecond, 500)
	tr.Received(1, time.Millisecond, 300)
	tr.Received(1, 11*time.Millisecond, 200)
	tr.Dropped(1, time.Millisecond)
	tr.Wire(0, 1, time.Millisecond, 500)
	tr.Wire(0, 1, 2*time.Millisecond, 100)
	tr.Wire(1, 0, 12*time.Millisecond, 50)
	tr.Wire(1, 1, time.Millisecond, 64) // intra-DC fabric: not inter-DC

	b := tr.NodeBuckets(1)
	if b[0].BytesOut != 500 || b[0].BytesIn != 300 || b[0].Delivered != 1 || b[0].Dropped != 1 {
		t.Errorf("bucket0 = %+v", b[0])
	}
	if b[1].BytesIn != 200 || b[1].Delivered != 1 {
		t.Errorf("bucket1 = %+v", b[1])
	}
	if tr.NodeName(1) != "cn0" {
		t.Errorf("NodeName = %q", tr.NodeName(1))
	}
	ls := tr.links[0*4096+1]
	if ls == nil || ls.buckets[0].Bytes != 600 || ls.buckets[0].Msgs != 2 {
		t.Errorf("link bucket = %+v", ls)
	}
	if got := tr.InterDCBytes(); got != 650 {
		t.Errorf("InterDCBytes = %d, want 650 (both directions, every bucket, no intra-DC)", got)
	}
}

// record populates a small but complete trace: two transactions through the
// full pipeline on two nodes, plus phases and telemetry.
func record(tr *Tracer) {
	tr.RegisterNode(0, "client0", 0)
	tr.RegisterNode(1, "cn0", 0)
	for i := byte(1); i <= 2; i++ {
		base := time.Duration(i) * time.Millisecond
		tr.TxStage(txid(i), StageSubmit, 0, base)
		tr.TxStage(txid(i), StageSequenced, 1, base+time.Millisecond)
		tr.TxStage(txid(i), StageAgreed, 1, base+3*time.Millisecond)
		tr.TxStage(txid(i), StageNotified, 0, base+5*time.Millisecond)
	}
	tr.Phase("pre-prepare", 1, 0, 7, 2*time.Millisecond)
	tr.Phase("prepared", 1, 0, 7, 3*time.Millisecond)
	tr.Phase("committed", 1, 0, 7, 4*time.Millisecond)
	tr.Busy(1, time.Millisecond, 2*time.Millisecond)
	tr.Queue(1, time.Millisecond, 4)
	tr.Sent(0, time.Millisecond, 512)
	tr.Received(1, 2*time.Millisecond, 512)
	tr.Wire(0, 0, time.Millisecond, 512)
}

func TestChromeTraceExport(t *testing.T) {
	tr := New(Options{})
	record(tr)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
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
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var spans, counters int
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "C":
			counters++
		}
	}
	// Two tx full spans + stage sub-spans + phase spans.
	if spans < 2 {
		t.Errorf("spans = %d, want >= 2", spans)
	}
	if counters == 0 {
		t.Error("no counter events")
	}
}

func TestExportsAreDeterministic(t *testing.T) {
	mk := func() *Tracer {
		tr := New(Options{})
		record(tr)
		return tr
	}
	var a, b, aj, bj bytes.Buffer
	if err := mk().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Chrome exports of identical recordings differ")
	}
	if err := mk().WriteJSONL(&aj); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteJSONL(&bj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Error("JSONL exports of identical recordings differ")
	}
}

func TestWriteSummary(t *testing.T) {
	tr := New(Options{})
	record(tr)
	var buf bytes.Buffer
	tr.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"telemetry over", "cn0", "slowest traced transactions"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
