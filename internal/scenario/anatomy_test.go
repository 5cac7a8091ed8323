package scenario

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

func anatomySpec(framework string, workers int) Scenario {
	return Scenario{
		Name:       "anatomy-test",
		Framework:  framework,
		Nodes:      NodesSpec{Orgs: 4},
		Workload:   WorkloadSpec{Clients: 8, Accounts: 400},
		Load:       LoadSpec{Rate: 2000, Window: Duration(100 * time.Millisecond)},
		SimWorkers: workers,
		Anatomy:    true,
	}
}

// runAnatomy runs the spec with an explicit tracer and returns the rendered
// anatomy, its CSV, the JSONL export, and the report itself.
func runAnatomy(t *testing.T, sp Scenario, forceSerial bool) (string, string, []byte, *anatomy.Report) {
	t.Helper()
	tr := trace.New(trace.Options{})
	res, err := RunWith(sp, RunConfig{Tracer: tr, ForceSerialSim: forceSerial})
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyErr != nil {
		t.Fatalf("safety: %v", res.SafetyErr)
	}
	if res.Anatomy == nil {
		t.Fatal("spec requested anatomy but Result.Anatomy is nil")
	}
	var rbuf, cbuf, jbuf bytes.Buffer
	if err := res.Anatomy.Render(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := res.Anatomy.CSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	return rbuf.String(), cbuf.String(), jbuf.Bytes(), res.Anatomy
}

// TestAnatomyInvariantOverRealRuns asserts the central decomposition
// invariant over real traced runs of both frameworks: every transaction's
// stage waits sum exactly to its measured submit→notified latency.
func TestAnatomyInvariantOverRealRuns(t *testing.T) {
	for _, fw := range []string{FrameworkBIDL, FrameworkHLF} {
		_, _, _, rep := runAnatomy(t, anatomySpec(fw, 0), false)
		if rep.Complete == 0 {
			t.Fatalf("%s: no complete transactions traced", fw)
		}
		for _, bd := range rep.Breakdowns {
			var sum time.Duration
			for _, w := range bd.Waits {
				sum += w
			}
			if want := bd.Notified - bd.Submit; sum != want {
				t.Fatalf("%s: tx %x waits sum %v != e2e %v", fw, bd.Tx[:4], sum, want)
			}
		}
		if fw == FrameworkBIDL && rep.Overlap.ExecTxs == 0 {
			t.Errorf("%s: no execution intervals measured", fw)
		}
	}
}

// TestAnatomySerialVsPDESIdentical pins the same-seed anatomy output
// byte-identical between a -sim-workers run and the serial reference.
func TestAnatomySerialVsPDESIdentical(t *testing.T) {
	renderP, csvP, jsonlP, _ := runAnatomy(t, anatomySpec(FrameworkBIDL, 4), false)
	renderS, csvS, jsonlS, _ := runAnatomy(t, anatomySpec(FrameworkBIDL, 4), true)
	if renderP != renderS {
		t.Errorf("anatomy render differs between PDES and serial:\n--- pdes ---\n%s--- serial ---\n%s", renderP, renderS)
	}
	if csvP != csvS {
		t.Error("anatomy CSV differs between PDES and serial")
	}
	if !bytes.Equal(jsonlP, jsonlS) {
		t.Error("JSONL export differs between PDES and serial")
	}
}

// TestAnatomyOfflineMatchesInProcess pins the offline path byte-identical:
// computing the breakdown from the JSONL export must reproduce the
// in-process report exactly — this is what freezes the JSONL schema.
func TestAnatomyOfflineMatchesInProcess(t *testing.T) {
	for _, fw := range []string{FrameworkBIDL, FrameworkFastFabric} {
		sp := anatomySpec(fw, 0)
		render, csv, jsonl, _ := runAnatomy(t, sp, false)
		data, err := trace.ValidateJSONL(bytes.NewReader(jsonl))
		if err != nil {
			t.Fatalf("%s: exported JSONL fails validation: %v", fw, err)
		}
		rep := anatomy.Compute(data.TxEvents, data.PhaseEvents,
			anatomy.Options{Windows: sp.AnatomyWindows()})
		var rbuf, cbuf bytes.Buffer
		if err := rep.Render(&rbuf); err != nil {
			t.Fatal(err)
		}
		if err := rep.CSV(&cbuf); err != nil {
			t.Fatal(err)
		}
		if rbuf.String() != render {
			t.Errorf("%s: offline render differs from in-process:\n--- offline ---\n%s--- in-process ---\n%s",
				fw, rbuf.String(), render)
		}
		if cbuf.String() != csv {
			t.Errorf("%s: offline CSV differs from in-process", fw)
		}
	}
}

// TestAnatomyFaultWindowsAnnotated runs a crash-then-churn scenario and checks
// the report carries the compiled fault windows plus the outside-windows row.
// Churn rotates over every organization, so its window names the cycle count,
// not an organization.
func TestAnatomyFaultWindowsAnnotated(t *testing.T) {
	sp := anatomySpec(FrameworkBIDL, 0)
	sp.Faults = []FaultSpec{
		{Kind: "crash", Org: 1, Node: 0, At: Duration(20 * time.Millisecond), Duration: Duration(30 * time.Millisecond)},
		{Kind: "churn", At: Duration(60 * time.Millisecond), Count: 4, Period: Duration(10 * time.Millisecond)},
	}
	_, _, _, rep := runAnatomy(t, sp, false)
	var labels []string
	for _, w := range rep.Windows {
		labels = append(labels, w.Label)
	}
	want := []string{"crash org1/node0", "churn x4", "outside windows"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("window labels = %q, want %q", labels, want)
	}
}

// TestAnatomyPrivateTracer checks spec.Anatomy alone (no caller tracer)
// produces a report.
func TestAnatomyPrivateTracer(t *testing.T) {
	res, err := Run(anatomySpec(FrameworkBIDL, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Anatomy == nil || res.Anatomy.Complete == 0 {
		t.Fatalf("anatomy = %+v, want populated report", res.Anatomy)
	}
}
