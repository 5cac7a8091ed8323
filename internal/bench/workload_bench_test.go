package bench

import "testing"

// Wrappers so the workload microbenchmarks run under `go test -bench`.

func BenchmarkPrepopulate(b *testing.B)   { PrepopulateBench(b) }
func BenchmarkGeneratorNext(b *testing.B) { GeneratorNextBench(b) }

// TestPrepopulateMemoryFlat is the in-tree form of the O(1)-memory claim:
// per-node prepopulation cost may not grow with the account count. Two
// endpoints two decades apart keep the test fast.
func TestPrepopulateMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	small := testing.Benchmark(func(b *testing.B) { prepopulateBenchAt(b, 10_000) })
	large := testing.Benchmark(func(b *testing.B) { prepopulateBenchAt(b, 1_000_000) })
	pts := []PrepopPoint{
		{Accounts: 10_000, BytesPerOp: float64(small.AllocedBytesPerOp())},
		{Accounts: 1_000_000, BytesPerOp: float64(large.AllocedBytesPerOp())},
	}
	if f := Flatness(pts); f > 2 {
		t.Fatalf("prepopulation bytes/op grew %.1fx from 10k to 1M accounts (%v); want flat",
			f, pts)
	}
}
