package bench

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/workload"
)

// The workload microbenchmarks pin the O(1)-memory guarantees of the
// million-user workload layer: prepopulating a node's world state must cost
// the same at 10⁴ and 10⁷ accounts (the copy-on-write base layer is shared,
// never materialized), and generating one transaction must stay constant-cost
// under Zipf skew, contention, and settlement flows. The Benchmark wrappers
// and the flatness test are in workload_bench_test.go.

// PrepopulateBenchAccounts is the account count PrepopulateBench and
// GeneratorNextBench run at; TestPrepopulateMemoryFlat separately proves the
// cost is flat in this number.
const PrepopulateBenchAccounts = 1_000_000

// benchSink keeps benchmark results live so the compiler cannot elide the
// measured work.
var benchSink any

// PrepopulateBench measures creating and prepopulating one node's world
// state at a million accounts with settlement fee schedules enabled —
// exactly what every node pays at cluster construction. With the shared
// copy-on-write base this is O(1): a fresh state plus one pointer.
func PrepopulateBench(b *testing.B) { prepopulateBenchAt(b, PrepopulateBenchAccounts) }

func prepopulateBenchAt(b *testing.B, accounts int) {
	w := workload.DefaultConfig(4)
	w.Seed = 1
	w.Accounts = accounts
	w.SettlementRatio = 0.2 // fee schedule joins the base layer
	gen := workload.NewGenerator(w, crypto.NewHMACScheme([]byte("bench")))
	gen.Prepopulate(ledger.NewState()) // build the shared base outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	var st *ledger.State
	for i := 0; i < b.N; i++ {
		st = ledger.NewState()
		gen.Prepopulate(st)
	}
	b.StopTimer()
	benchSink = st
	if want := 2*accounts + 4; st.Len() != want {
		b.Fatalf("prepopulated state has %d entries, want %d", st.Len(), want)
	}
}

// GeneratorNextBench measures producing one signed transaction from the
// steady-state generator with every streaming feature engaged: Zipf(1.5)
// account skew over a million accounts, 20% hot-set contention, and 20%
// multi-step settlement flows. Cost must not depend on Accounts — names
// render lazily and draws are O(1).
func GeneratorNextBench(b *testing.B) {
	w := workload.DefaultConfig(4)
	w.Seed = 1
	w.Accounts = PrepopulateBenchAccounts
	w.ZipfS = 1.5
	w.ContentionRatio = 0.2
	w.SettlementRatio = 0.2
	gen := workload.NewGenerator(w, crypto.NewHMACScheme([]byte("bench")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = gen.Next()
	}
}

// PrepopPoint is one account count on the memory-per-account curve.
type PrepopPoint struct {
	Accounts   int
	BytesPerOp float64
}

// Flatness reduces a curve to one number: max bytes/op over min bytes/op.
// O(1) prepopulation keeps it ≈ 1.
func Flatness(pts []PrepopPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	min, max := pts[0].BytesPerOp, pts[0].BytesPerOp
	for _, p := range pts[1:] {
		if p.BytesPerOp < min {
			min = p.BytesPerOp
		}
		if p.BytesPerOp > max {
			max = p.BytesPerOp
		}
	}
	if min == 0 {
		return 1
	}
	return max / min
}
