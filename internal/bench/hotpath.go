package bench

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/workload"
)

// PipelineHotPath times one transaction end-to-end through the full BIDL
// pipeline — submit → sequence → multicast → execute → persist → commit —
// on the paper's Setting A cluster. ns/op is the host cost of pushing one
// transaction through every phase, the number the profile-guided pass
// (`make profile`) optimizes; vevents/op shows how many simulator events one
// transaction fans out into.
//
// It lives outside the test files so the repository benchmark's ladder
// (benchmark/ladder.go) can run it with testing.Benchmark;
// BenchmarkPipelineHotPath wraps it for the `go test -bench` path.
func PipelineHotPath(b *testing.B) {
	cfg := core.DefaultConfig() // the paper's setting A
	cfg.Seed = 1
	w := workload.DefaultConfig(cfg.NumOrgs)
	w.Seed = 1
	w.Accounts = 2000 // lighter prepopulation; per-txn pipeline cost is unaffected

	c := core.NewCluster(cfg)
	gen := workload.NewGenerator(w, c.Scheme)
	ids := make([]crypto.Identity, w.NumClients)
	for i := range ids {
		ids[i] = gen.Client(i)
	}
	c.RegisterClients(ids)
	c.Prepopulate(gen.Prepopulate)

	const gap = 50 * time.Microsecond // ~20k txns/s offered, well under capacity
	txns := gen.Batch(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i, tx := range txns {
		c.SubmitAt(time.Duration(i)*gap, tx)
	}
	c.Run(time.Duration(b.N)*gap + 500*time.Millisecond)
	b.StopTimer()
	if got := c.Collector.NumCommitted(); got != b.N {
		b.Fatalf("committed %d of %d transactions", got, b.N)
	}
	b.ReportMetric(float64(c.Sim.Events())/float64(b.N), "vevents/op")
}
