package bench

import (
	"testing"
)

// BenchmarkPipelineHotPath is the `go test -bench` entry point for
// PipelineHotPath (see hotpath.go). `make ci` runs this with -benchtime=1x as
// a smoke test, which also asserts that every submitted transaction commits.
func BenchmarkPipelineHotPath(b *testing.B) { PipelineHotPath(b) }

// TestPipelineHotPathAllocs pins the profile-guided allocation budget: one
// transaction end-to-end currently costs ~40 allocations (1828 before the
// persist-path memoization, 310 before the computed-once rule of DESIGN.md
// §7.1 reached signing bytes, signature verdicts and the whole PERSIST echo,
// 218 while a node kept ten maps per transaction and every node decoded and
// hashed each block for itself, 154 while a timer was a closure, every MAC
// check allocated its tag and PERSIST batches regrew from nil, 143 while
// every execution built a context with two maps, digests framed a slice of
// converted parts into a heap hasher and a delegate assembled each vector in
// two maps). The ceiling is measured + 10 %: it fails loudly if a regression
// reintroduces per-receiver serialisation, verification, decoding or
// hashing, or a per-transaction map.
func TestPipelineHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark run")
	}
	if raceBuild {
		// sync.Pool drops a random share of Puts under -race, so the pooled
		// HMAC states re-allocate and the count wanders by tens (249–262
		// measured when the plain build stood at 222).
		t.Skip("allocation pin holds for the plain build only")
	}
	r := testing.Benchmark(BenchmarkPipelineHotPath)
	if a := r.AllocsPerOp(); a > 44 {
		t.Fatalf("pipeline hot path allocates %d/op; ceiling 44", a)
	}
}
