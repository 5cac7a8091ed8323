package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// runChild re-executes it.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		if err := childMain(req); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var spec benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: got %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths: got %v", spec.Paths)
	}
}

// TestSmokeAllWorkloads runs both passes of every workload at a twentieth of
// its size and checks that exactly BENCHMARK.json's metric names come out and
// that every output check passes.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 28 scenario children")
	}
	spec := readBenchmarkJSON(t)
	p := plan{Seed: 7, Scale: 0.05, MinReps: 2, SetupBudget: time.Millisecond, WorkDir: t.TempDir()}
	ladder, failures := runLadder(p.Seed, "1x")
	for _, f := range failures {
		t.Error(f)
	}
	for _, w := range workloadNames {
		e2e, err := measureEndToEnd(w, p)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := measureLayers(w, p, ladder)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []struct {
			o    outcome
			defs []metricDef
		}{{e2e, spec.EndToEnd}, {layers, spec.PerLayer}} {
			for _, f := range pass.o.Failures {
				t.Error(f)
			}
			want := map[string]string{}
			for _, d := range pass.defs {
				want[d.Name] = d.Unit
			}
			got := map[string]string{}
			for name, v := range pass.o.Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: emitted metrics and units differ from BENCHMARK.json:\n got %v\nwant %v", w, got, want)
			}
		}
		if layers.Metrics["consensus.view_changes"].Value > 0 != (w == "faulty") {
			t.Errorf("%s: %v view changes", w, layers.Metrics["consensus.view_changes"].Value)
		}
	}
}

const cannedTraces = `File: bidl-benchmark
Type: cpu
Time: Sep 25, 2026 at 10:00am (UTC)
Duration: 3.20s, Total samples = 100ms ( 3.12%)
-----------+-------------------------------------------------------
      30ms   crypto/sha256.block
             crypto/sha256.(*digest).Write
             github.com/bidl-framework/bidl/internal/crypto.(*HMACScheme).Sign
             github.com/bidl-framework/bidl/internal/types.(*Transaction).Sign
             github.com/bidl-framework/bidl/internal/workload.(*Generator).NextFrom
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess2_faststr
             github.com/bidl-framework/bidl/internal/core.(*NormalNode).tryCommitBlock
             github.com/bidl-framework/bidl/internal/simnet.(*Endpoint).processNext
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   github.com/bidl-framework/bidl/internal/cost.(*Model).Exec
             github.com/bidl-framework/bidl/internal/baseline/fabric.(*Peer).endorse
-----------+-------------------------------------------------------
      10ms   github.com/bidl-framework/bidl/internal/consensus/pbft.(*Replica).onPrepare
             github.com/bidl-framework/bidl/internal/core.(*ConsNode).OnMessage
-----------+-------------------------------------------------------
      10ms   github.com/bidl-framework/bidl/internal/attack.(*Broadcaster).burst
-----------+-------------------------------------------------------
      10ms   github.com/bidl-framework/bidl/internal/trace/anatomy.Compute
             github.com/bidl-framework/bidl.ComputeAnatomy
             main.simulatedLayers
-----------+-------------------------------------------------------
`

func TestParseTracesAndAttribute(t *testing.T) {
	samples, err := parseTraces([]byte(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 || samples[0].weight != 30*time.Millisecond || len(samples[0].frames) != 5 {
		t.Fatalf("parsed %d samples, first %+v", len(samples), samples[0])
	}
	got := attribute(samples)
	want := map[string]float64{"crypto": 30, "core": 20, "go_runtime": 10, "fabric": 10, "consensus": 10, "chaos": 10, "trace": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attribution: got %v, want %v", got, want)
	}
	if _, err := parseTraces([]byte("-----\n   bogus   frame\n")); err == nil {
		t.Error("a malformed weight must be an error")
	}
	for in, want := range map[string]time.Duration{"250us": 250 * time.Microsecond, "1.20s": 1200 * time.Millisecond, "1.5mins": 90 * time.Second} {
		if got, err := parseWeight(in); err != nil || got != want {
			t.Errorf("parseWeight(%q) = %v, %v", in, got, err)
		}
	}
}

func TestLongestStall(t *testing.T) {
	const w = 100 * time.Microsecond
	//                  0  1  2  3  4  5  6  7  8  9
	timeline := []float64{0, 0, 0, 5, 0, 0, 9, 0, 0, 0}
	for _, c := range []struct {
		from time.Duration
		want time.Duration
	}{
		{0, 3 * w},     // the leading gap counts when the window starts at 0
		{3 * w, 3 * w}, // … and is excluded by the warm-up; the trailing gap wins
		{7 * w, 3 * w}, // a gap running to the end of the window
		{9 * w, w},     // only the last bucket
		{20 * w, 0},    // nothing inside the window
	} {
		if got := longestStall(timeline, w, c.from); got != c.want {
			t.Errorf("longestStall(from %v) = %v, want %v", c.from, got, c.want)
		}
	}
	if got := longestStall([]float64{1, 2, 3}, w, 0); got != 0 {
		t.Errorf("a timeline with no gap stalls for %v", got)
	}
}

func TestCompare(t *testing.T) {
	spec := benchSpec{
		EndToEnd: []metricDef{
			{"host_us_per_txn", "us", lower, 0.10},
			{"sim_tput_tps", "tx/s", higher, 0.05},
			{"sim_p50_ms", "ms", lower, 0.10},
		},
		PerLayer: []metricDef{{Name: "core.cpu_pct", Unit: "%", Better: lower}},
	}
	f := func(v float64) *float64 { return &v }
	a := results{Workloads: map[string]map[string]value{"steady": {
		"host_us_per_txn": {Value: 400, Min: f(390), Max: f(410)},
		"sim_tput_tps":    {Value: 20000},
		"sim_p50_ms":      {Value: 12},
		"core.cpu_pct":    {Value: 50},
	}}}
	within := results{Workloads: map[string]map[string]value{"steady": {
		"host_us_per_txn": {Value: 430, Min: f(425), Max: f(440)},
		"sim_tput_tps":    {Value: 20000},
		"sim_p50_ms":      {Value: 11},
		"core.cpu_pct":    {Value: 40},
	}}}
	status := func(rows []compareRow) map[string]string {
		m := map[string]string{}
		for _, r := range rows {
			m[r.Metric] = r.Status
		}
		return m
	}
	got := status(compareResults(spec, a, within))
	want := map[string]string{"host_us_per_txn": statusOK, "sim_tput_tps": statusIdentical, "sim_p50_ms": statusOK, "core.cpu_pct": statusLayer}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("within bounds: got %v, want %v", got, want)
	}

	worse := results{Workloads: map[string]map[string]value{"steady": {
		"host_us_per_txn": {Value: 430, Min: f(380), Max: f(450)}, // own range 16 % > 10 % bound
		"sim_tput_tps":    {Value: 18000},                         // 10 % lower, bound 5 %
		"core.cpu_pct":    {Value: 50},
	}}}
	got = status(compareResults(spec, a, worse))
	want = map[string]string{"host_us_per_txn": statusUnresolved, "sim_tput_tps": statusRegression, "sim_p50_ms": statusMissing}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("worse: got %v, want %v", got, want)
	}

	// The command: exit 0 within bounds, 1 on a regression, and the table
	// names the offending row.
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath, aPath := write("spec.json", spec), write("a.json", a)
	var out bytes.Buffer
	if code := compareFiles(&out, specPath, aPath, write("within.json", within)); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, specPath, aPath, write("worse.json", worse)); code != 1 || !strings.Contains(out.String(), statusRegression) {
		t.Errorf("regression: exit %d\n%s", code, out.String())
	}
}
