// Multi-datacenter: the §6.4 deployment — four datacenters connected by
// dedicated cables with 20 ms RTT and limited shared bandwidth. IP multicast
// and consensus-on-hash let BIDL cross the inter-DC pipes once per payload;
// with both optimizations disabled, the same payload crosses once per
// receiver and throughput collapses as bandwidth tightens.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/bidl-framework/bidl"
)

// run offers 15k txns/s for 1 s to setting A spread over four datacenters
// whose inter-DC pipes share gbps, and returns the throughput measured from
// 300 ms on and the bytes that crossed datacenters.
func run(gbps float64, optDisabled bool) (float64, uint64) {
	var s bidl.Scenario
	s.Nodes.Datacenters = 4
	s.Topology.InterDCGbps = gbps // the default inter-DC latency is 10 ms: 20 ms RTT
	s.Tuning.ViewTimeout = bidl.ScenarioDuration(400 * time.Millisecond)
	s.Tuning.BlockTimeout = bidl.ScenarioDuration(25 * time.Millisecond)
	s.Tuning.DisableMulticast, s.Tuning.ConsensusOnPayload = optDisabled, optDisabled
	s.Workload.Seed = 7
	s.Load.Rate, s.Load.Window = 15000, bidl.ScenarioDuration(time.Second)
	s.Load.Warmup = bidl.ScenarioDuration(300 * time.Millisecond)
	s.Load.Drain = bidl.ScenarioDuration(time.Second)

	// The run's link telemetry counts inter-DC bytes. A tracer pins the
	// serial engine, which capped pipes do already.
	tracer := bidl.NewTracer(bidl.TraceOptions{})
	res, err := bidl.RunScenarioWith(s, bidl.ScenarioRunConfig{Tracer: tracer})
	if err == nil {
		err = res.SafetyErr
	}
	if err != nil {
		log.Fatal(err)
	}
	return res.Throughput, tracer.InterDCBytes()
}

func main() {
	fmt.Println("BIDL across 4 datacenters (20 ms inter-DC RTT), offered 15k txns/s")
	fmt.Println("bandwidth   bidl txns/s  (interDC MB)   opt-disabled txns/s  (interDC MB)")
	for _, gbps := range []float64{10, 2, 1} {
		t1, b1 := run(gbps, false)
		t2, b2 := run(gbps, true)
		fmt.Printf("  %4.1f Gbps  %9.0f     (%6.1f)      %9.0f          (%6.1f)\n",
			gbps, t1, float64(b1)/1e6, t2, float64(b2)/1e6)
	}
	fmt.Println("\nIP multicast + consensus-on-hash cross each inter-DC pipe once per")
	fmt.Println("payload; disabling them multiplies inter-DC traffic by the receiver count.")
}
