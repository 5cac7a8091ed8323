package bench

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/workload"
)

// benchSink keeps benchmark results live so the compiler cannot elide the
// measured work.
var benchSink any

// BenchmarkPrepopulate measures creating and prepopulating one node's world
// state at a million accounts with settlement fee schedules enabled —
// exactly what every node pays at cluster construction. With the shared
// copy-on-write base and the deployment's key table this is O(1): a fresh
// state plus two pointers. (The
// per-transaction generator cost is the benchmark ladder's
// workload.next_zipf_ns rung.)
func BenchmarkPrepopulate(b *testing.B) { prepopulateBenchAt(b, 1_000_000) }

func prepopulateBenchAt(b *testing.B, accounts int) {
	w := workload.DefaultConfig(4)
	w.Seed = 1
	w.Accounts = accounts
	w.SettlementRatio = 0.2 // fee schedule joins the base layer
	gen := workload.NewGenerator(w, crypto.NewHMACScheme([]byte("bench")))
	gen.Prepopulate(ledger.NewState()) // build the shared base outside the timer
	keys := dense.NewTable[string]()
	b.ReportAllocs()
	b.ResetTimer()
	var st *ledger.State
	for i := 0; i < b.N; i++ {
		st = ledger.NewStateOn(keys)
		gen.Prepopulate(st)
	}
	b.StopTimer()
	benchSink = st
	if want := 2*accounts + 4; st.Len() != want {
		b.Fatalf("prepopulated state has %d entries, want %d", st.Len(), want)
	}
}

// TestPrepopulateMemoryFlat is the in-tree form of the O(1)-memory claim:
// per-node prepopulation cost may not grow with the account count. Two
// endpoints two decades apart keep the test fast.
func TestPrepopulateMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	small := testing.Benchmark(func(b *testing.B) { prepopulateBenchAt(b, 10_000) }).AllocedBytesPerOp()
	large := testing.Benchmark(func(b *testing.B) { prepopulateBenchAt(b, 1_000_000) }).AllocedBytesPerOp()
	if large > 2*small {
		t.Fatalf("prepopulation allocates %d B/op at 10k accounts and %d B/op at 1M; want flat", small, large)
	}
}
