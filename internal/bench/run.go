package bench

import (
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
)

// Result summarizes one framework run (the scenario driver's result type;
// re-exported so tables and callers keep their historical name).
type Result = scenario.Result

// runScenario executes one sweep point through the shared scenario driver,
// wiring the harness-level accounting (virtual-event counter, trace sink)
// around it. A traced point, or any point under a trace sink, runs with one
// tracer, so its Result counts inter-DC bytes. Spec validation errors
// surface as SafetyErr so a single bad point cannot abort a whole gathered
// sweep.
func runScenario(o Options, sp scenario.Scenario, traced bool) Result {
	var rc scenario.RunConfig
	if traced || o.TraceSink != nil {
		rc.Tracer = trace.New(trace.Options{})
	}
	// Harness-level PDES selection: an explicit sim_workers in the spec
	// wins; otherwise the option applies to every point of the sweep.
	if o.SimWorkers > 1 && sp.SimWorkers == 0 {
		sp.SimWorkers = o.SimWorkers
	}
	rc.ForceSerialSim = o.ForceSerialSim
	res, err := scenario.RunWith(sp, rc)
	if err != nil {
		res.SafetyErr = err
		return res
	}
	o.addEvents(res.Events)
	if o.TraceSink != nil {
		o.TraceSink(rc.Tracer)
	}
	return res
}
