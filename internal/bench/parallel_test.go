package bench

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/scenario"
)

// TestGatherPreservesTaskOrder checks the worker pool's core contract:
// results land at their task's index no matter which worker ran them.
func TestGatherPreservesTaskOrder(t *testing.T) {
	const n = 100
	tasks := make([]func() int, n)
	for i := range tasks {
		i := i
		tasks[i] = func() int { return i * i }
	}
	for _, workers := range []int{0, 1, 3, 8, -1} {
		out := Gather(workers, tasks)
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestGatherRunsConcurrently verifies the pool actually overlaps work: with 4
// workers over rendezvous-style tasks, peak in-flight count must exceed 1.
func TestGatherRunsConcurrently(t *testing.T) {
	var inFlight, peak atomic.Int64
	tasks := make([]func() int, 8)
	for i := range tasks {
		tasks[i] = func() int {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
			return 0
		}
	}
	Gather(4, tasks)
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

// shortOptions returns a fast configuration: tiny scale clamps every
// measurement window to the 200ms floor while rates shrink proportionally.
func shortOptions(workers int) Options {
	return Options{Scale: 0.02, Seed: 7, Workers: workers}
}

// TestParallelMatchesSerial is the determinism regression test for the sweep
// runner: fig3 (18 independent runs) must render byte-identical tables
// whether its sweep points execute serially or on a worker pool.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment sweep")
	}
	serial, err := renderExperiment("fig3", shortOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := renderExperiment("fig3", shortOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel table diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func renderExperiment(id string, o Options) ([]byte, error) {
	e, ok := Get(id)
	if !ok {
		return nil, errUnknown(id)
	}
	var buf bytes.Buffer
	table, err := e.Run(o)
	if err != nil {
		return nil, err
	}
	table.Render(&buf)
	table.CSV(&buf)
	return buf.Bytes(), nil
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown experiment " + string(e) }

// TestSameSeedRunsAreIdentical asserts the substrate invariant the parallel
// runner leans on: two runs built from the same seed execute the same number
// of events and commit the same block sequence (chained ledger digest).
func TestSameSeedRunsAreIdentical(t *testing.T) {
	run := func() (uint64, int, [32]byte) {
		sp := scenario.Scenario{
			Framework: scenario.FrameworkBIDL,
			Seed:      7,
			Workload:  scenario.WorkloadSpec{Accounts: 10000, Contention: 0.2},
			Load:      scenario.LoadSpec{Rate: 2000, Window: scenario.Duration(300 * time.Millisecond)},
		}
		var digest [32]byte
		rc := scenario.RunConfig{Observe: func(h scenario.Harness) {
			digest = h.(*core.Cluster).LedgerDigest()
		}}
		res, err := scenario.RunWith(sp, rc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Events, res.Collector.NumCommitted(), digest
	}
	e1, n1, d1 := run()
	e2, n2, d2 := run()
	if e1 != e2 {
		t.Fatalf("event counts diverge: %d vs %d", e1, e2)
	}
	if n1 != n2 {
		t.Fatalf("commit counts diverge: %d vs %d", n1, n2)
	}
	if d1 != d2 {
		t.Fatalf("commit sequences diverge: %x vs %x", d1, d2)
	}
	if n1 == 0 {
		t.Fatal("no transactions committed; determinism check is vacuous")
	}
}

// TestMeasureCountsEvents checks that Measure attributes virtual events and
// wall time to the experiment it ran.
func TestMeasureCountsEvents(t *testing.T) {
	table, stats, err := Measure("ablation", shortOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Rows) != 4 {
		t.Fatalf("ablation table malformed: %+v", table)
	}
	if stats.VirtualEvents == 0 {
		t.Fatal("no virtual events recorded")
	}
	if stats.WallSeconds <= 0 {
		t.Fatal("no wall time recorded")
	}
	if math.Abs(stats.EventsPerSec-float64(stats.VirtualEvents)/stats.WallSeconds) > 1 {
		t.Fatalf("events/sec inconsistent: %+v", stats)
	}
}
