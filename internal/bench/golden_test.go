package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var goldenUpdate = flag.Bool("golden-update", false, "regenerate golden files")

// goldenOptions runs two sweep points at a time. Tables are byte-identical at
// any Workers, so under -race the goldens also audit what concurrent runs
// share (dense tables, crypto caches, the contract registry) over the whole
// registry.
func goldenOptions() Options { return Options{Scale: 0.05, Seed: 7, Workers: 2} }

// goldenIDs pin every registry experiment except chaos, which has its own
// catalog goldens (internal/chaos/testdata): rendered table, CSV and the
// virtual-event count at goldenOptions. Between them they cover every run
// path: all four BFT protocols through the consensus-node host (fig6), the
// orderer host and the phase breakdown (table3), datacenter placement with
// multicast and consensus-on-hash disabled (fig9), loss-driven fetch and
// retransmission on both families (fig10), contention and non-determinism
// (fig3, fig8, contention), the attack wiring (fig7, table4), traced anatomy,
// and the sharded harness with cross-shard 2PC.
var goldenIDs = []string{"ablation", "table2", "fig3", "fig5", "fig6", "table3", "fig7", "table4",
	"fig8", "fig9", "fig10", "anatomy", "contention", "sharding"}

// TestGoldenScenarioTables is the behavior-preservation gate for the
// scenario-layer refactor: running registry experiments through the
// declarative scenario driver must reproduce the pre-refactor tables
// byte-for-byte (rendered text + CSV) AND execute exactly the same number
// of virtual events. The files under testdata/ were generated by the
// pre-refactor imperative harness (bidlRun/fabricRun) at the same options.
// Regenerate deliberately with: go test ./internal/bench -run
// TestGoldenScenarioTables -golden-update
func TestGoldenScenarioTables(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment sweeps")
	}
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			// Experiments share no mutable state, so the subtests overlap;
			// the tables stay byte-identical under -race either way.
			t.Parallel()
			table, stats, err := Measure(id, goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			table.Render(&buf)
			table.CSV(&buf)
			fmt.Fprintf(&buf, "virtual_events: %d\n", stats.VirtualEvents)

			path := filepath.Join("testdata", "golden-"+id+".txt")
			if *goldenUpdate {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s diverges from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s",
					id, buf.Bytes(), want)
			}
		})
	}
}
