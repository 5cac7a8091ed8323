package fabric

import (
	"testing"
	"time"
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

// TestLeaderOrdererRestartProposesQueued crashes the leading orderer while
// envelopes wait in its batch queue, keeps it down past the batch timeout,
// and checks that after restart it proposes them with no further submission:
// Fabric clients never retransmit, so the restarted leader is their only way
// into a block.
func TestLeaderOrdererRestartProposesQueued(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(FastFabric), defaultWorkload())
	leader := c.Orderers[c.LeaderIndex()]
	txs := gen.Batch(10) // fewer than a block: only the batch timer proposes them
	c.SubmitAt(0, txs...)
	crash := time.Duration(0)
	for ; len(leader.pendingEnvs) < len(txs); crash += 50 * time.Microsecond {
		if crash > c.Cfg.BlockTimeout {
			t.Fatalf("leader queued %d of %d envelopes by %v", len(leader.pendingEnvs), len(txs), crash)
		}
		c.Run(crash)
	}
	leader.Ep.SetDown(true)
	restart := crash + 3*c.Cfg.BlockTimeout
	c.Run(restart)
	if got := c.Collector.NumCommitted(); got != 0 || len(leader.pendingEnvs) != len(txs) {
		t.Fatalf("while the leader was down: %d committed, %d envelopes queued; want 0 and %d",
			got, len(leader.pendingEnvs), len(txs))
	}
	leader.Ep.Restart()
	c.Run(restart + 2*c.Cfg.BlockTimeout)
	if got := c.Collector.NumCommitted(); got != len(txs) {
		t.Fatalf("committed %d of %d envelopes queued at the restarted leader", got, len(txs))
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}
