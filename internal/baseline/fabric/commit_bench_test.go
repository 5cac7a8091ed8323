package fabric

import (
	"runtime"
	"testing"

	"github.com/bidl-framework/bidl/internal/simnet"
)

// peerCommitBlocks hands n full blocks to one peer of the paper's setting A
// (50 peers) the way a healthy run delivers them: 500 endorsed envelopes with
// the orderers' memos, which another peer validated first — as for 49 of the
// 50, the VSCC outcome and the ledger block are there to read; the MVCC
// check, the writes and the chain append are the peer's own. Only commit, the
// peer's handling of the block, runs inside timed.
func peerCommitBlocks(tb testing.TB, n int, timed func(commit func())) {
	c, peers, batch := quietCluster(tb, DefaultConfig(FastFabric))
	first, p := peers[1], peers[0]
	ctx := simnet.NewInjectedContext(c.Net, p.ep)
	from := c.Orderers[0].Ep.ID()
	for number := 0; number < n; number++ {
		blk := testBlock(tb, c, uint64(number), batch(c.Cfg.BlockSize))
		deliver(c, first, blk)
		timed(func() { p.OnMessage(ctx, from, blk) })
	}
	if p.CommitHeight() != uint64(n) || p.State().Len() != first.State().Len() {
		tb.Fatalf("committed %d of %d blocks, %d keys where the first peer holds %d",
			p.CommitHeight(), n, p.State().Len(), first.State().Len())
	}
}

// BenchmarkPeerValidateAndCommit: ns/op and allocs/op are per block; building
// and endorsing the envelopes is outside the timer. `make hotpath-smoke` runs
// one block of it, which also asserts that it commits.
func BenchmarkPeerValidateAndCommit(b *testing.B) {
	b.ReportAllocs()
	b.StopTimer()
	peerCommitBlocks(b, b.N, func(commit func()) {
		b.StartTimer()
		commit()
		b.StopTimer()
	})
}

// A peer's bytes per 500-envelope block stay under a ceiling: 326 KB (4 565
// allocations, 1.33 ms) while every peer built and hashed its own ledger
// block, serialised every endorsement and kept a map by hash; 27.7 KB (39,
// 69 µs) measured with the block shared and the marks an array by ordinal, the
// 500 new keys' entries being 24 KB of it; the ceiling is that + 15 %.
func TestPeerCommitBytes(t *testing.T) {
	const blocks = 20
	var bytes uint64
	var before, after runtime.MemStats
	peerCommitBlocks(t, blocks, func(commit func()) {
		runtime.ReadMemStats(&before)
		commit()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
	})
	if per := bytes / blocks; per > 32_000 {
		t.Fatalf("a peer allocates %d bytes per committed block; ceiling 32000", per)
	}
}
