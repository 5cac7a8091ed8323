package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var summaryGoldenUpdate = flag.Bool("golden-update", false, "rewrite the registry summary golden file")

func populated() *Collector {
	c := NewCollector()
	c.PersistFlushes, c.PersistFlushEntries, c.PersistMsgs = 41, 97, 3
	return c
}

// TestRegistrySummaryGolden pins the -telemetry registry block byte-for-byte:
// sorted names, stable formatting, a zero counter (the bad-signature one)
// omitted. Regenerate deliberately with
//
//	go test ./internal/metrics -run TestRegistrySummaryGolden -golden-update
func TestRegistrySummaryGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := populated().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden-registry-summary.txt")
	if *summaryGoldenUpdate {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -golden-update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("summary drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestRegistrySummaryEmptyAndNil(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector()
	c.Conflicts = 7 // not part of the block
	if err := c.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty summary = %q, want nothing (no header)", buf.String())
	}
}

func TestRegistrySummaryDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := populated().WriteSummary(&a); err != nil {
		t.Fatal(err)
	}
	if err := populated().WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("summaries of identical collectors differ")
	}
}

// Summarize is the one place the headline numbers are assembled: each field
// must equal the query the former call sites (scenario.RunWith, the two
// System.Summary copies, `bidl run`) made for it, over the same window.
func TestSummarizeMatchesQueries(t *testing.T) {
	c := NewCollector()
	for i := byte(0); i < 100; i++ {
		c.Submitted(id(i), time.Duration(i)*time.Millisecond)
		c.Committed(id(i), time.Duration(i)*3*time.Millisecond+time.Millisecond, i%10 == 0)
	}
	c.Submitted(id(200), 0) // never commits
	c.Speculated, c.SpecMatched = 90, 81
	from, to := 60*time.Millisecond, 240*time.Millisecond
	want := Summary{
		Throughput:  c.EffectiveThroughput(from, to),
		AvgLatency:  c.AvgLatency(from, to),
		P50:         c.PercentileLatency(0.5, from, to),
		P99:         c.PercentileLatency(0.99, from, to),
		Committed:   100,
		AbortRate:   0.1,
		SpecSuccess: 0.9,
	}
	if got := c.Summarize(from, to); got != want {
		t.Errorf("Summarize = %+v, want %+v", got, want)
	}
	if want.Throughput != 54/0.18 || want.P99 <= want.P50 || want.AvgLatency == 0 {
		t.Errorf("fixture degenerate: %+v", want)
	}
}

// Summary.String is the line every cmd/bidl run-*.golden pins; checked here
// against run-default's, for that run's values before rounding.
func TestSummaryStringMatchesRunGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "cmd", "bidl", "testdata", "run-default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s := Summary{
		Throughput: 4000.2, AvgLatency: 10251234 * time.Nanosecond, P50: 10 * time.Millisecond,
		P99: 16123456 * time.Nanosecond, Committed: 1200, AbortRate: 0, SpecSuccess: 1,
	}
	if !strings.Contains(string(golden), "\n"+s.String()+"\n") {
		t.Errorf("%q is not a line of run-default.golden:\n%s", s.String(), golden)
	}
}
