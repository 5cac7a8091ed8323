package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// A normal node that commits a block another node already wrote, with a
// different persisted result for one transaction, must leave the cluster's
// shared state and apply its own: the sequential-replay oracle then flags it
// and no other node, and every other node still shares. The forged result,
// the real one plus a write to a key nobody else writes, is slipped into one
// non-delegate (which sends no results, so nobody else sees it) when it
// adopts a result for a block some sharing node committed.
func TestForgedResultLeavesSharedState(t *testing.T) {
	cfg := smallConfig()
	cfg.PerOrg = 2
	var (
		c      *Cluster
		target *NormalNode
		forged uint64 // the forged transaction's sequence number, 0 before
	)
	restore := SetPersistProbe(&PersistProbe{Adopted: func(node simnet.NodeID, seq uint64, _ time.Duration, _ int) {
		if forged != 0 || node != target.ep.ID() {
			return
		}
		for _, pb := range target.blockBuf {
			if !slices.Contains(pb.seqs, seq) || !committedElsewhere(c, target, pb.msg.Number) {
				continue
			}
			ns := target.pool.note(seq)
			if res := ns.persist.result; res.Consistent && !res.Aborted {
				f := *res
				f.ckOK = false
				f.Writes = append(slices.Clone(res.Writes), ledger.Write{Key: "forged", Val: []byte("x")})
				ns.persist.result, forged = &f, seq
			}
		}
	}})
	defer restore()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	target = c.Orgs[3][1]
	txns := gen.Batch(300)
	for i, tx := range txns {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(2 * time.Second)
	if forged == 0 {
		t.Fatal("the target never adopted a result for a block another node had committed")
	}
	if c.Collector.NumCommitted() != len(txns) {
		t.Fatalf("committed %d of %d transactions", c.Collector.NumCommitted(), len(txns))
	}
	for _, org := range c.Orgs {
		for _, nn := range org {
			if shares := nn.State().Sharing(); shares == (nn == target) {
				t.Fatalf("%s shares the world state: %t", nn.ep.Name(), shares)
			}
		}
	}
	offenders, err := replayOffenders(c, gen, txns)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 1 || offenders[0].node != target {
		t.Fatalf("the replay oracle flags %v; want %s alone (forged seq %d)", offenders, target.ep.Name(), forged)
	}
}

// committedElsewhere reports whether a node other than n that still shares
// the world state committed block num: the block is written there.
func committedElsewhere(c *Cluster, n *NormalNode, num uint64) bool {
	for _, org := range c.Orgs {
		for _, nn := range org {
			if nn != n && nn.State().Sharing() && nn.commitHeight > num {
				return true
			}
		}
	}
	return false
}

// World-state bytes a normal node retains per committed write beyond the one
// copy its cluster holds, when every node of a 50-node cluster commits the
// same 20 blocks of 500 writes to fresh keys: what dropping every node's state
// but the first frees (their overlays and scratches already dropped), over the
// other nodes and the writes. Their views are a few hundred bytes each; a
// state of their own each is an entry of 32 bytes and more per write.
func TestWorldStateBytesPerNodePerCommittedWrite(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's allocations blur a retained-heap pin: it holds for the plain build only")
	}
	f := newCommitCluster(t, DefaultConfig(), false)
	var nodes []*NormalNode
	var ctxs []*simnet.Context
	for _, org := range f.c.Orgs {
		for _, nn := range org {
			nodes, ctxs = append(nodes, nn), append(ctxs, simnet.NewInjectedContext(f.c.Net, nn.ep))
		}
	}
	const blocks = 20
	for b := 0; b < blocks; b++ {
		deliver := f.block(t, func(i int) string { return fmt.Sprintf("w%d-%d", b, i) })
		for i, nn := range nodes {
			deliver(nn, ctxs[i])
		}
	}
	for _, nn := range nodes {
		if nn.commitHeight != blocks || !nn.base.Sharing() {
			t.Fatalf("%s committed %d of %d blocks, sharing %t", nn.ep.Name(), nn.commitHeight, blocks, nn.base.Sharing())
		}
	}
	if val, _, ok := nodes[len(nodes)-1].State().Get("w19-499"); !ok || string(val) != "v" {
		t.Fatalf("the last write reads %q, %t", val, ok)
	}
	for _, nn := range nodes[1:] { // what reads the state, not the state
		nn.overlay, nn.exec = nil, [2]contract.ExecScratch{}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties sync.Pool's victim cache
	runtime.ReadMemStats(&before)
	for _, nn := range nodes[1:] {
		nn.base = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	writes := blocks * f.c.Cfg.BlockSize
	per := float64(int64(before.HeapAlloc)-int64(after.HeapAlloc)) / float64((len(nodes)-1)*writes)
	if per > 1 {
		t.Fatalf("a normal node's world state retains %.2f bytes per committed write; ceiling 1", per)
	}
	t.Logf("%.3f bytes per node per committed write", per)
}

// A normal node down for longer than the shared state keeps undo records
// (more than maxViewLag blocks) is made to leave while it is down and, back
// up, catches up on a state of its own: it ends at the others' height, holding
// the sequential replay like every node, and no other node leaves.
func TestLaggingNodeLeavesAndCatchesUp(t *testing.T) {
	cfg := smallConfig()
	cfg.PerOrg = 2 // the victim is no delegate: the cluster commits without it
	c, gen := buildCluster(t, cfg, defaultWorkload())
	victim := c.Orgs[3][1]
	c.Sim.At(50*time.Millisecond, func() { victim.ep.SetDown(true) })
	c.Sim.At(650*time.Millisecond, victim.ep.Restart)
	var left bool // by the end of its downtime
	c.Sim.At(640*time.Millisecond, func() { left = !victim.State().Sharing() })
	const n = 800
	txns := gen.Batch(n)
	for i, tx := range txns {
		c.SubmitAt(time.Duration(i)*time.Millisecond, tx)
	}
	c.Run(3 * time.Second)
	if !left {
		t.Fatalf("the victim still shared after 590 ms down (height %d; the others reached %d)",
			victim.CommitHeight(), c.Orgs[0][0].CommitHeight())
	}
	for _, org := range c.Orgs {
		for _, nn := range org {
			if shares := nn.State().Sharing(); shares == (nn == victim) {
				t.Fatalf("%s shares the world state: %t", nn.ep.Name(), shares)
			}
		}
	}
	if got := c.Collector.NumCommitted(); got != n {
		t.Fatalf("committed %d of %d", got, n)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, c, gen, txns)
}
