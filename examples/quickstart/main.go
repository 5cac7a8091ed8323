// Quickstart: describe a BIDL network as a scenario, offer it SmallBank
// transfers, and watch them commit with speculative execution.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/bidl-framework/bidl"
)

func main() {
	// A small deployment: 4 consensus nodes (tolerating 1 Byzantine),
	// 8 organizations with one normal node each.
	var s bidl.Scenario
	s.Nodes.Orgs = 8
	s.Tuning.BlockSize = 100
	s.Tuning.BlockTimeout = bidl.ScenarioDuration(5 * time.Millisecond)
	s.Workload.Clients, s.Workload.Accounts = 10, 1000

	// 500 money transfers over 50 ms of virtual time, then 950 ms to drain.
	s.Load.Rate, s.Load.Window = 10000, bidl.ScenarioDuration(50*time.Millisecond)
	s.Load.Drain = bidl.ScenarioDuration(950 * time.Millisecond)

	// Observe sees the cluster once the simulation ends.
	var blocks uint64
	var balance string
	res, err := bidl.RunScenarioWith(s, bidl.ScenarioRunConfig{Observe: func(h bidl.Harness) {
		c := h.(*bidl.Cluster)
		blocks = c.TotalCommitHeight()
		// An account balance on an organization's normal node.
		if val, _, ok := c.Orgs[0][0].State().Get("sb:chk:acct-0"); ok {
			balance = string(val)
		}
	}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("BIDL quickstart")
	fmt.Printf("   submitted %d: %v\n", res.Submitted, res.Summary)
	fmt.Printf("   blocks committed: %d\n", blocks)

	// The safety guarantee (§3.1): every correct node holds the same chain
	// and organizations agree on the world state.
	if res.SafetyErr != nil {
		log.Fatal(res.SafetyErr)
	}
	fmt.Println("   safety: all correct nodes consistent")
	fmt.Printf("   acct-0 checking balance at org0: %s\n", balance)
}
