package bench

import (
	"fmt"

	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

// Result is one sweep point's run: scenario.RunWith's result plus, for a
// point of a Traced experiment, what its tracer recorded.
type Result struct {
	scenario.Result
	// Anatomy is the latency anatomy of the point's trace.
	Anatomy *anatomy.Report
	// InterDCBytes is the bytes that crossed between datacenters
	// (Tracer.InterDCBytes).
	InterDCBytes uint64
}

// spanCapacity bounds a traced point's lifecycle-event ring; tests shrink it
// to make a point overflow. The ring grows lazily, so the bound costs only
// what a point records; TestTracedPointsFitTheRing checks that every traced
// point at full scale fits.
var spanCapacity = 1 << 20

// runScenario executes one sweep point through scenario.RunWith and credits
// its virtual events. A traced point runs with a tracer of its own,
// read here alone: the point fails if the tracer overwrote lifecycle events,
// rather than let a row average a truncated set.
func runScenario(o Options, sp scenario.Scenario, traced bool) (Result, error) {
	var rc scenario.RunConfig
	if traced {
		rc.Tracer = trace.New(trace.Options{SpanCapacity: spanCapacity})
	}
	sr, err := scenario.RunWith(sp, rc)
	res := Result{Result: sr}
	if err != nil {
		return res, err
	}
	o.addEvents(res.Events)
	if traced {
		tr := rc.Tracer
		if n := tr.DroppedTxEvents(); n > 0 {
			return res, fmt.Errorf("the trace ring overwrote %d lifecycle events", n)
		}
		res.Anatomy = anatomy.Compute(tr.TxEvents(), tr.PhaseEvents(), anatomy.Options{Windows: sp.AnatomyWindows()})
		res.InterDCBytes = tr.InterDCBytes()
	}
	return res, nil
}
