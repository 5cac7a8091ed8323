package fabric

import (
	"runtime"
	"testing"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// peerCommitBlocks hands n full blocks to one peer of the paper's setting A
// (50 peers) the way a healthy run delivers them: 500 endorsed envelopes with
// the orderers' memos, which another peer validated first and wrote into the
// cluster's world state — as for 49 of the 50, the peer's view follows and
// adopts that peer's verdicts, and the ledger block is there to read. Only
// commit, the peer's handling of the block, runs inside timed. The other 48
// peers leave the shared state before the first block (they never commit,
// and would hold its undo records). The first poolSize blocks are built and
// endorsed once and then cycled: every poolSize blocks, outside timed, both
// peers start again at height 0 on a fresh world state, so that n blocks of
// fresh keys do not pile up.
func peerCommitBlocks(tb testing.TB, n int, timed func(commit func())) {
	const poolSize = 256
	c, peers, batch := quietCluster(tb, DefaultConfig(FastFabric))
	first, p := peers[1], peers[0]
	for _, q := range peers[2:] {
		q.State().Leave()
	}
	ctx := simnet.NewInjectedContext(c.Net, p.ep)
	from := c.Orderers[0].Ep.ID()
	var pool []*FabricBlock
	for done := 0; done < n; done += poolSize {
		if done > 0 {
			base := p.state.Base()
			c.world = ledger.NewShared(c.Keys)
			for _, q := range []*Peer{first, p} {
				q.state, q.blocks, q.committed, q.commitHeight = c.world.View(), ledger.NewBlockStore(), nil, 0
				q.state.SetBase(base)
			}
		}
		blocks := min(n-done, poolSize)
		for number := 0; number < blocks; number++ {
			if number == len(pool) {
				pool = append(pool, testBlock(tb, c, uint64(number), batch(c.Cfg.BlockSize)))
			}
			blk := pool[number]
			deliver(c, first, blk)
			timed(func() { p.OnMessage(ctx, from, blk) })
		}
		if p.CommitHeight() != uint64(blocks) || !p.State().Sharing() || !p.State().Equal(first.State()) {
			tb.Fatalf("committed %d of %d blocks, sharing %t, equal to the first peer %t",
				p.CommitHeight(), blocks, p.State().Sharing(), p.State().Equal(first.State()))
		}
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
// 69 µs) with the block shared and the marks an array by ordinal, the 500 new
// keys' entries in the peer's own state being 24 KB of it; 2.1 KB (28, 44 µs)
// with the peer's view adopting the first peer's verdicts: no MVCC pass and
// no entries of its own. The ceiling is that + 15 %.
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
	if per := bytes / blocks; per > 2_390 {
		t.Fatalf("a peer allocates %d bytes per committed block; ceiling 2390", per)
	}
}
