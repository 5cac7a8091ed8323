package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
)

// pdesOptions is the tier the PDES determinism sweep runs at: small enough
// to keep the full-registry double run affordable, parallel enough (4
// workers over the 50-org default) that every cross-partition code path is
// exercised.
func pdesOptions() Options {
	return Options{Scale: 0.05, Seed: 1, SimWorkers: 4}
}

// renderAll renders an experiment's table and run stats into one byte
// fingerprint (text + CSV + virtual event count).
func renderAll(t *testing.T, id string, o Options) []byte {
	t.Helper()
	table, stats, err := Measure(id, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	table.Render(&buf)
	table.CSV(&buf)
	fmt.Fprintf(&buf, "virtual_events: %d\n", stats.VirtualEvents)
	return buf.Bytes()
}

// TestPDESDeterminismAllExperiments is the tentpole's acceptance gate: for
// EVERY registered experiment, a parallel run (4 PDES workers) must be
// byte-identical — rendered tables, CSV, and virtual event counts — to the
// serial reference engine over the same partitioned simulation at the same
// seed. Run under -race this doubles as the data-race audit of every
// framework, protocol, attack, and ablation path the registry reaches.
func TestPDESDeterminismAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry double sweep")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			o := pdesOptions()
			parallel := renderAll(t, e.ID, o)
			o.ForceSerialSim = true
			serial := renderAll(t, e.ID, o)
			if !bytes.Equal(parallel, serial) {
				t.Fatalf("parallel run diverges from serial engine:\n--- parallel ---\n%s\n--- serial ---\n%s", parallel, serial)
			}
		})
	}
}

// TestPDESScenarioDeepIdentity compares a single multi-DC BIDL scenario at
// full-result depth: beyond the table numbers, the committed ledger digest
// (a chained hash over every block) and the virtual event count must match
// between engines, proving the two executions were the same event sequence,
// not merely statistically alike.
func TestPDESScenarioDeepIdentity(t *testing.T) {
	sp := scenario.Scenario{
		Name:       "pdes-deep",
		Framework:  scenario.FrameworkBIDL,
		Seed:       3,
		Nodes:      scenario.NodesSpec{Orgs: 8, Datacenters: 2},
		Topology:   scenario.TopologySpec{LossRate: 0.01, Jitter: scenario.Duration(20 * time.Microsecond)},
		Load:       scenario.LoadSpec{Rate: 2000, Window: scenario.Duration(400 * time.Millisecond)},
		SimWorkers: 4,
	}
	type deep struct {
		res    Result
		digest string
		parts  int
	}
	run := func(forceSerial bool) deep {
		var d deep
		rc := scenario.RunConfig{
			ForceSerialSim: forceSerial,
			Observe: func(h scenario.Harness) {
				bc := h.(*core.Cluster)
				// The ledger, every organization's world state and the
				// telemetry block: key and hash ids follow whichever
				// partition interned first, and none of these may.
				var sb strings.Builder
				fmt.Fprintf(&sb, "%x", bc.LedgerDigest())
				for _, org := range bc.Orgs {
					fmt.Fprintf(&sb, " %x", org[0].State().Digest())
				}
				sb.WriteByte('\n')
				if err := bc.Collector.WriteSummary(&sb); err != nil {
					t.Fatal(err)
				}
				d.digest = sb.String()
				d.parts = bc.Sim.NumPartitions()
			},
		}
		res, err := scenario.RunWith(sp, rc)
		if err != nil {
			t.Fatal(err)
		}
		res.Collector = nil // pointer identity, not part of the fingerprint
		d.res = res
		return d
	}
	parallel, serial := run(false), run(true)
	if parallel.parts < 2 {
		t.Fatalf("scenario compiled to %d partitions; PDES never engaged", parallel.parts)
	}
	if parallel.res != serial.res {
		t.Fatalf("results diverge:\nparallel: %+v\nserial:   %+v", parallel.res, serial.res)
	}
	if parallel.digest != serial.digest || parallel.digest == "" {
		t.Fatalf("ledger, state digests or telemetry diverge:\nparallel: %s\nserial:   %s", parallel.digest, serial.digest)
	}
	if parallel.res.Events == 0 || parallel.res.Throughput == 0 {
		t.Fatalf("degenerate run (events=%d throughput=%g)", parallel.res.Events, parallel.res.Throughput)
	}
}

// TestPDESTracedRunFallsBackToSerial pins the safety valve: tracing needs a
// globally time-ordered event stream, so a traced run must ignore
// sim_workers and still produce the identical result.
func TestPDESTracedRunFallsBackToSerial(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1, SimWorkers: 4}
	o.TraceSink = func(tr *trace.Tracer) {}
	spec := scenario.Scenario{
		Framework:  scenario.FrameworkBIDL,
		Seed:       1,
		Nodes:      scenario.NodesSpec{Orgs: 6},
		Load:       scenario.LoadSpec{Rate: 1000, Window: scenario.Duration(300 * time.Millisecond)},
		SimWorkers: 4,
	}
	traced := runScenario(o, spec)
	o.TraceSink = nil
	o.ForceSerialSim = true
	serial := runScenario(o, spec)
	traced.Collector, serial.Collector = nil, nil
	if traced != serial {
		t.Fatalf("traced (serial-pinned) run diverges from explicit serial run:\ntraced: %+v\nserial: %+v", traced, serial)
	}
}
