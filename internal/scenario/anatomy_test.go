package scenario

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

func anatomySpec(framework string) Scenario {
	return Scenario{
		Name:      "anatomy-test",
		Framework: framework,
		Nodes:     NodesSpec{Orgs: 4},
		Workload:  WorkloadSpec{Clients: 8, Accounts: 400},
		Load:      LoadSpec{Rate: 2000, Window: Duration(100 * time.Millisecond)},
	}
}

// runAnatomy runs the spec with an explicit tracer and returns the rendered
// anatomy computed from that tracer (fault windows from the spec), its CSV,
// the JSONL export, and the report itself.
func runAnatomy(t *testing.T, sp Scenario) (string, string, []byte, *anatomy.Report) {
	t.Helper()
	tr := trace.New(trace.Options{})
	res, err := RunWith(sp, RunConfig{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyErr != nil {
		t.Fatalf("safety: %v", res.SafetyErr)
	}
	rep := anatomy.Compute(tr.TxEvents(), tr.PhaseEvents(), anatomy.Options{Windows: sp.AnatomyWindows()})
	var rbuf, cbuf, jbuf bytes.Buffer
	if err := rep.Render(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := rep.CSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	return rbuf.String(), cbuf.String(), jbuf.Bytes(), rep
}

// TestAnatomyInvariantOverRealRuns asserts the central decomposition
// invariant over real traced runs of both frameworks: every transaction's
// stage waits sum exactly to its measured submit→notified latency.
func TestAnatomyInvariantOverRealRuns(t *testing.T) {
	for _, fw := range []string{FrameworkBIDL, FrameworkHLF} {
		_, _, _, rep := runAnatomy(t, anatomySpec(fw))
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

// TestAnatomyOfflineMatchesInProcess pins the offline path byte-identical:
// computing the breakdown from the JSONL export must reproduce the
// in-process report exactly — this is what freezes the JSONL schema.
func TestAnatomyOfflineMatchesInProcess(t *testing.T) {
	for _, fw := range []string{FrameworkBIDL, FrameworkFastFabric} {
		sp := anatomySpec(fw)
		render, csv, jsonl, _ := runAnatomy(t, sp)
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
	sp := anatomySpec(FrameworkBIDL)
	sp.Faults = []FaultSpec{
		{Kind: "crash", Org: 1, Node: 0, At: Duration(20 * time.Millisecond), Duration: Duration(30 * time.Millisecond)},
		{Kind: "churn", At: Duration(60 * time.Millisecond), Count: 4, Period: Duration(10 * time.Millisecond)},
	}
	_, _, _, rep := runAnatomy(t, sp)
	var labels []string
	for _, w := range rep.Windows {
		labels = append(labels, w.Label)
	}
	want := []string{"crash org1/node0", "churn x4", "outside windows"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("window labels = %q, want %q", labels, want)
	}
}
