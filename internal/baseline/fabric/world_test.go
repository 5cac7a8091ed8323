package fabric

import (
	"runtime"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// The cluster's one committed world state (DESIGN.md §7.1): a peer's view
// adopts the verdicts the first peer recorded for a block only when it holds
// that block object on that chain tip; any other peer leaves and validates on
// a state of its own, and the sequential-replay oracle holds either way.

// A peer handed a copy of a block, equal in content but not the object the
// other peers validated (as a relay that re-encodes blocks hands on), leaves
// the shared state and validates the copy on a state of its own: it still
// ends holding the replay, and every other peer still shares.
func TestCopiedBlockLeavesSharedState(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(FastFabric), defaultWorkload())
	target := c.Peers[3][0]
	copied := false
	c.Net.DropFilter = func(from, to simnet.NodeID, msg simnet.Message) bool {
		blk, ok := msg.(*FabricBlock)
		if !ok || to != target.ep.ID() || copied || blk.Number != 2 {
			return false
		}
		// Late enough that another peer wrote the original, before block 3.
		copied = true
		cp := copyBlock(blk)
		c.Sim.After(time.Millisecond, func() { target.OnMessage(simnet.NewInjectedContext(c.Net, target.ep), from, cp) })
		return true
	}
	txns := gen.Batch(300)
	for i, tx := range txns {
		c.SubmitAt(time.Duration(i)*200*time.Microsecond, tx)
	}
	c.Run(2 * time.Second)
	if !copied {
		t.Fatal("block 2 never went out")
	}
	if got := c.Collector.NumCommitted(); got != len(txns) {
		t.Fatalf("committed %d of %d", got, len(txns))
	}
	requireSharing(t, c, target)
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, c, gen)
}

// requireSharing fails t unless every peer but left still shares the
// cluster's world state and left does not.
func requireSharing(t *testing.T, c *Cluster, left *Peer) {
	t.Helper()
	for _, org := range c.Peers {
		for _, p := range org {
			if shares := p.State().Sharing(); shares == (p == left) {
				t.Fatalf("%s shares the world state: %t", p.ep.Name(), shares)
			}
		}
	}
}

// A peer down for longer than the shared state keeps undo records (more than
// maxViewLag blocks) is made to leave while it is down and, back up, catches
// up through FabricBlockFetch on a state of its own: it ends at the chain's
// height holding the replay, and no other peer leaves.
func TestLaggingPeerLeavesAndCatchesUp(t *testing.T) {
	cfg := smallConfig(FastFabric)
	cfg.PerOrg = 2 // the victim endorses and notifies nothing
	c, gen := buildCluster(t, cfg, defaultWorkload())
	victim := c.Peers[3][1]
	c.Sim.At(50*time.Millisecond, func() { victim.ep.SetDown(true) })
	c.Sim.At(650*time.Millisecond, victim.ep.Restart)
	var left bool // by the end of its downtime
	var behind uint64
	c.Sim.At(640*time.Millisecond, func() {
		left, behind = !victim.State().Sharing(), c.Peers[0][0].CommitHeight()-victim.CommitHeight()
	})
	const n = 800
	txns := gen.Batch(n)
	for i, tx := range txns {
		c.SubmitAt(time.Duration(i)*time.Millisecond, tx)
	}
	c.Run(3 * time.Second)
	if !left || behind <= 64 {
		t.Fatalf("after 590 ms down the victim shared %t, %d blocks behind", !left, behind)
	}
	if got := c.Collector.NumCommitted(); got != n {
		t.Fatalf("committed %d of %d", got, n)
	}
	requireSharing(t, c, victim)
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, c, gen)
}

// A peer's view adopts a block's verdicts only on the writer's chain tip,
// which fixes the transactions earlier blocks carried and so which of the
// block's it skips. Here peer 1's chain and marks are swapped for those of a
// peer that committed another block 0 while its view still shares; handed the
// block peer 0 wrote, it must leave and skip what its own chain carried.
func TestPeerOnAnotherChainDoesNotAdopt(t *testing.T) {
	c, peers, batch := quietCluster(t, smallConfig(FastFabric))
	txns := batch(3)
	first, other := testBlock(t, c, 0, txns[:1]), testBlock(t, c, 0, txns[1:2])
	deliver(c, peers[0], first)
	deliver(c, peers[1], first)
	deliver(c, peers[2], other)
	peers[1].blocks, peers[1].committed = peers[2].blocks, peers[2].committed
	second := testBlock(t, c, 1, txns) // writes k-1-0, k-1-1, k-1-2
	deliver(c, peers[0], second)
	deliver(c, peers[1], second)
	for i, want := range []string{"k-1-1", "k-1-2", "k-1-0", "k-1-2"} {
		p := peers[i/2]
		if _, _, ok := p.State().Get(want); !ok {
			t.Fatalf("peer %d does not hold %s", i/2, want)
		}
	}
	skipped := []string{"k-1-0", "k-1-1"}
	for i, p := range peers[:2] {
		if _, _, ok := p.State().Get(skipped[i]); ok {
			t.Fatalf("peer %d holds %s, the write of a transaction its chain carried", i, skipped[i])
		}
	}
	if !peers[0].State().Sharing() || peers[1].State().Sharing() {
		t.Fatalf("peer 0 shares %t, peer 1 shares %t", peers[0].State().Sharing(), peers[1].State().Sharing())
	}
}

// World-state bytes a peer retains per committed write beyond the one copy its
// cluster holds, when every peer of the 50 commits the same 20 blocks of 500
// writes to fresh keys: what dropping every peer's state but the first frees,
// over the other peers and the writes. Their views are a few hundred bytes
// each; a state of their own each is an entry of 32 bytes and more per write.
func TestWorldStateBytesPerPeerPerCommittedWrite(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's allocations blur a retained-heap pin: it holds for the plain build only")
	}
	c, peers, batch := quietCluster(t, DefaultConfig(FastFabric))
	const blocks = 20
	for b := 0; b < blocks; b++ {
		blk := testBlock(t, c, uint64(b), batch(c.Cfg.BlockSize))
		for _, p := range peers {
			deliver(c, p, blk)
		}
	}
	for _, p := range peers {
		if p.CommitHeight() != blocks || !p.State().Sharing() {
			t.Fatalf("%s committed %d of %d blocks, sharing %t", p.ep.Name(), p.CommitHeight(), blocks, p.State().Sharing())
		}
	}
	if val, _, ok := peers[len(peers)-1].State().Get("k-19-499"); !ok || string(val) != "v" {
		t.Fatalf("the last write reads %q, %t", val, ok)
	}
	for _, p := range peers[1:] { // what reads the state, not the state
		p.exec = contract.ExecScratch{}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties sync.Pool's victim cache
	runtime.ReadMemStats(&before)
	for _, p := range peers[1:] {
		p.state = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	writes := blocks * c.Cfg.BlockSize
	per := float64(int64(before.HeapAlloc)-int64(after.HeapAlloc)) / float64((len(peers)-1)*writes)
	if per > 1 {
		t.Fatalf("a peer's world state retains %.2f bytes per committed write; ceiling 1", per)
	}
	t.Logf("%.3f bytes per peer per committed write", per)
}
