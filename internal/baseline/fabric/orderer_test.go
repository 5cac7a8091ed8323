package fabric

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/simnet"
)

func TestOrderersConverge(t *testing.T) {
	// All orderers process the same chain regardless of which one leads.
	c, gen := buildCluster(t, smallConfig(FastFabric), defaultWorkload())
	txs := gen.Batch(20)
	for i, tx := range txs {
		c.SubmitAt(time.Duration(i)*time.Millisecond, tx)
	}
	c.Run(2 * time.Second)
	if got := c.Collector.NumCommitted(); got != len(txs) {
		t.Fatalf("committed %d of %d", got, len(txs))
	}
	h0 := c.Orderers[0].chainHeight
	for i, o := range c.Orderers {
		if o.chainHeight != h0 {
			t.Fatalf("orderer %d height %d != %d", i, o.chainHeight, h0)
		}
	}
}

func TestStreamChainBlocksAreSingletons(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(StreamChain), defaultWorkload())
	for i, tx := range gen.Batch(30) {
		c.SubmitAt(time.Duration(i)*time.Millisecond, tx)
	}
	c.Run(2 * time.Second)
	p := c.Peers[0][0]
	if p.CommitHeight() < 30 {
		t.Fatalf("streamchain committed %d blocks for 30 txns", p.CommitHeight())
	}
	for n := uint64(0); n < p.CommitHeight(); n++ {
		if blk := p.Blocks().Get(n); blk != nil && len(blk.Hashes) != 1 {
			t.Fatalf("block %d has %d txns; streamchain must not batch", n, len(blk.Hashes))
		}
	}
}

func TestHLFOrderersHoldPayloads(t *testing.T) {
	// The HLF ordering leader disseminates payloads to all consensus
	// nodes (Table 4 S2's defensive property); FastFabric's does not.
	run := func(v Variant) int {
		c, gen := buildCluster(t, smallConfig(v), defaultWorkload())
		for i, tx := range gen.Batch(50) {
			c.SubmitAt(time.Duration(i)*time.Millisecond, tx)
		}
		c.Run(2 * time.Second)
		// Count payloads held by a FOLLOWER orderer.
		follower := (c.LeaderIndex() + 1) % len(c.Orderers)
		return len(c.Orderers[follower].byHash)
	}
	if got := run(HLF); got < 50 {
		t.Fatalf("HLF follower orderer holds %d payloads, want >= 50", got)
	}
	if got := run(FastFabric); got != 0 {
		t.Fatalf("FastFabric follower orderer holds %d payloads, want 0 (trusted single orderer)", got)
	}
}

// A proposal a view change discards is never delivered, so nothing but the
// view change can drop its proposal time.
func TestViewChangeForgetsProposalTimes(t *testing.T) {
	c, peers, batch := quietCluster(t, smallConfig(HLF))
	o := c.Orderers[c.LeaderIndex()]
	o.Bind(simnet.NewInjectedContext(c.Net, o.Ep), func() {
		o.proposeBatch(testBlock(t, c, 0, batch(3)).Envs)
		if len(o.proposeTime) != 1 {
			t.Fatalf("%d proposal times after one proposal, want 1", len(o.proposeTime))
		}
		o.ViewChanged(1, 1, nil)
	})
	if len(o.proposeTime) != 0 || peers[0].CommitHeight() != 0 {
		t.Fatalf("%d proposal times kept across the view change that discarded the proposal", len(o.proposeTime))
	}
}
