// Trading: the paper's motivating scenario (§1) — an in-datacenter stock
// exchange needs ~50k txns/s with tens-of-milliseconds commit latency.
// This example drives BIDL at exchange-scale load and reports the latency
// distribution a trading desk would care about.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/bidl-framework/bidl"
)

func main() {
	fmt.Println("BIDL as an in-datacenter exchange (SmallBank transfers)")
	// Three one-second trading bursts, each on a fresh deployment of paper
	// setting A (4 consensus nodes, 50 orgs), measured after 200 ms.
	for _, rate := range []float64{10000, 25000, 40000} {
		var s bidl.Scenario
		s.Workload.Clients = 100 // the paper's client count
		s.Workload.Accounts = 10000
		s.Load.Rate, s.Load.Window = rate, bidl.ScenarioDuration(time.Second)
		res, err := bidl.RunScenario(s)
		if err == nil {
			err = res.SafetyErr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  burst %.0fk txns/s: throughput=%.0f avg=%v p50=%v p99=%v\n",
			rate/1000, res.Throughput,
			res.AvgLatency.Round(10*time.Microsecond),
			res.P50.Round(10*time.Microsecond),
			res.P99.Round(10*time.Microsecond))
	}
	fmt.Println("  safety: all correct nodes consistent")
}
