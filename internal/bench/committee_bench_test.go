package bench

import (
	"fmt"
	"testing"

	"github.com/bidl-framework/bidl/internal/scenario"
)

// BenchmarkCommitteeScale runs the repository benchmark's `wide` shape (every
// organization also runs a consensus node, f = (n-1)/3, open loop 6 000 tx/s
// for 150 ms) at 13, 49, 97 and 193 organizations: the simulator's cost
// against committee size. host-ns/vevent is the wall time per simulated event
// (flat when the simulator's cost follows the simulated work), vevents/txn the
// simulated work per transaction, which grows with n on its own.
//
//	go test ./internal/bench -run '^$' -bench BenchmarkCommitteeScale -benchtime 3x
func BenchmarkCommitteeScale(b *testing.B) {
	for _, n := range []int{13, 49, 97, 193} {
		b.Run(fmt.Sprintf("orgs=%d", n), func(b *testing.B) {
			sp, err := scenario.Parse([]byte(fmt.Sprintf(`{"name": "committee", "framework": "bidl", "seed": 1,
				"nodes": {"orgs": %d, "consensus": %d, "faults": %d},
				"load": {"rate": 6000, "window": "150ms", "drain": "200ms"}}`, n, n, (n-1)/3)))
			if err != nil {
				b.Fatal(err)
			}
			var events, txns uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(sp)
				if err != nil {
					b.Fatal(err)
				}
				if res.SafetyErr != nil || res.Committed == 0 {
					b.Fatalf("%d orgs: safety %v, %d committed", n, res.SafetyErr, res.Committed)
				}
				events, txns = events+res.Events, txns+uint64(res.Submitted)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "host-ns/vevent")
			b.ReportMetric(float64(events)/float64(txns), "vevents/txn")
		})
	}
}
