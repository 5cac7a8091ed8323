package bench

import (
	"fmt"

	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

// Result summarizes one framework run (the scenario driver's result type;
// re-exported so tables and callers keep their historical name).
type Result = scenario.Result

// spanCapacity bounds a traced point's lifecycle-event ring (0: the
// tracer's default); tests shrink it to make a point overflow.
var spanCapacity int

// runScenario executes one sweep point through the shared scenario driver,
// wiring the harness-level accounting (virtual-event counter, trace sink)
// around it. A traced point, or any point under a trace sink, runs with one
// tracer, so its Result counts inter-DC bytes; a traced point's Result also
// carries the latency anatomy of that trace, and the point fails if the
// tracer overwrote lifecycle events, rather than let a row average a
// truncated set.
func runScenario(o Options, sp scenario.Scenario, traced bool) (Result, error) {
	var rc scenario.RunConfig
	if traced || o.TraceSink != nil {
		rc.Tracer = trace.New(trace.Options{SpanCapacity: spanCapacity})
	}
	res, err := scenario.RunWith(sp, rc)
	if err != nil {
		return res, err
	}
	o.addEvents(res.Events)
	if o.TraceSink != nil {
		o.TraceSink(rc.Tracer)
	}
	if traced {
		if n := rc.Tracer.DroppedTxEvents(); n > 0 {
			return res, fmt.Errorf("the trace ring overwrote %d lifecycle events", n)
		}
		if res.Anatomy == nil {
			res.Anatomy = anatomy.Compute(rc.Tracer.TxEvents(), rc.Tracer.PhaseEvents(), anatomy.Options{})
		}
	}
	return res, nil
}
