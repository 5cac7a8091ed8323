package core

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
)

// TestAllProtocolsEndToEnd runs the BIDL workflow over each of the four BFT
// protocols the paper integrates (§6) and checks commits and safety.
func TestAllProtocolsEndToEnd(t *testing.T) {
	for _, proto := range []string{ProtoPBFT, ProtoHotStuff, ProtoZyzzyva, ProtoSBFT} {
		t.Run(proto, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Protocol = proto
			c, gen := buildCluster(t, cfg, defaultWorkload())
			const n = 200
			for i, tx := range gen.Batch(n) {
				c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
			}
			c.Run(3 * time.Second)
			if got := c.Collector.NumCommitted(); got != n {
				t.Fatalf("%s committed %d of %d", proto, got, n)
			}
			if err := c.CheckSafety(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMoreConsensusNodes exercises a 7-node (f=2) consensus cluster.
func TestMoreConsensusNodes(t *testing.T) {
	cfg := smallConfig()
	cfg.NumConsensus = 7
	cfg.F = 2
	c, gen := buildCluster(t, cfg, defaultWorkload())
	for i, tx := range gen.Batch(200) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 200 {
		t.Fatalf("committed %d of 200 with 7 consensus nodes", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// TestDisableSpeculationAblation verifies the sequential-workflow ablation:
// commits still happen, nothing speculates, and latency exceeds the parallel
// workflow's.
func TestDisableSpeculationAblation(t *testing.T) {
	run := func(disable bool) (time.Duration, uint64, int) {
		cfg := smallConfig()
		cfg.DisableSpeculation = disable
		c, gen := buildCluster(t, cfg, defaultWorkload())
		for i, tx := range gen.Batch(200) {
			c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
		}
		c.Run(3 * time.Second)
		if err := c.CheckSafety(); err != nil {
			t.Fatal(err)
		}
		return c.Collector.AvgLatency(0, 3*time.Second), c.Collector.Speculated, c.Collector.NumCommitted()
	}
	parLat, parSpec, parN := run(false)
	seqLat, seqSpec, seqN := run(true)
	if parN != 200 || seqN != 200 {
		t.Fatalf("committed %d / %d", parN, seqN)
	}
	if seqSpec != 0 {
		t.Fatalf("sequential ablation speculated %d transactions", seqSpec)
	}
	if parSpec == 0 {
		t.Fatal("parallel workflow never speculated")
	}
	if seqLat <= parLat {
		t.Fatalf("sequential latency %v not above parallel %v", seqLat, parLat)
	}
}

// TestConsensusOnPayloadMode verifies the opt-disabled configuration works
// end-to-end and pushes more bytes through consensus.
func TestConsensusOnPayloadMode(t *testing.T) {
	run := func(onPayload bool) (int, uint64) {
		cfg := smallConfig()
		cfg.ConsensusOnPayload = onPayload
		cfg.Tracer = trace.New(trace.Options{})
		c, gen := buildCluster(t, cfg, defaultWorkload())
		for i, tx := range gen.Batch(150) {
			c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
		}
		c.Run(2 * time.Second)
		if err := c.CheckSafety(); err != nil {
			t.Fatal(err)
		}
		var sent uint64
		for id := 0; id < cfg.Tracer.NumNodes(); id++ {
			for _, b := range cfg.Tracer.NodeBuckets(id) {
				sent += b.BytesOut
			}
		}
		return c.Collector.NumCommitted(), sent
	}
	nHash, bytesHash := run(false)
	nFull, bytesFull := run(true)
	if nHash != 150 || nFull != 150 {
		t.Fatalf("committed %d / %d", nHash, nFull)
	}
	if bytesFull <= bytesHash {
		t.Fatalf("consensus-on-payload moved %d bytes <= hash mode's %d", bytesFull, bytesHash)
	}
}

// TestDisableMulticastMode verifies unicast fan-out still commits.
func TestDisableMulticastMode(t *testing.T) {
	cfg := smallConfig()
	cfg.DisableMulticast = true
	c, gen := buildCluster(t, cfg, defaultWorkload())
	for i, tx := range gen.Batch(150) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(2 * time.Second)
	if got := c.Collector.NumCommitted(); got != 150 {
		t.Fatalf("committed %d of 150 without multicast", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedConsensusFollower: BIDL keeps committing with one crashed
// non-leader consensus node (f=1).
func TestCrashedConsensusFollower(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	victim := (c.LeaderIndex() + 1) % cfg.NumConsensus
	c.Sim.At(0, func() {
		c.ConsNodes[victim].Endpoint().SetDown(true)
		c.Sequencers[victim].Endpoint().SetDown(true)
	})
	for i, tx := range gen.Batch(200) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 200 {
		t.Fatalf("committed %d of 200 with a crashed follower", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedLeaderRecovers: clients retransmit, the view changes, and
// transactions commit under a new leader.
func TestCrashedLeaderRecovers(t *testing.T) {
	cfg := smallConfig()
	cfg.ViewTimeout = 60 * time.Millisecond
	c, gen := buildCluster(t, cfg, defaultWorkload())
	evil := c.LeaderIndex()
	// Crash the leader (and its sequencer) before any load arrives, so
	// every submission initially lands at a dead sequencer and recovery
	// must go through client retransmission and a view change (§4.5).
	c.Sim.At(0, func() {
		c.ConsNodes[evil].Endpoint().SetDown(true)
		c.Sequencers[evil].Endpoint().SetDown(true)
	})
	for i, tx := range gen.Batch(200) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(5 * time.Second)
	if c.LeaderIndex() == evil {
		t.Fatal("leader did not change after crash")
	}
	if got := c.Collector.NumCommitted(); got < 190 {
		t.Fatalf("committed %d of 200 after leader crash", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// TestMultipleNormalNodesPerOrg: intra-org replicas stay consistent.
func TestMultipleNormalNodesPerOrg(t *testing.T) {
	cfg := smallConfig()
	cfg.PerOrg = 3
	c, gen := buildCluster(t, cfg, defaultWorkload())
	for i, tx := range gen.Batch(200) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 200 {
		t.Fatalf("committed %d of 200", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
	// Every replica in org 0 at the same height has the same state.
	org := c.Orgs[0]
	for j := 1; j < len(org); j++ {
		if org[0].CommitHeight() == org[j].CommitHeight() &&
			org[0].State().Digest() != org[j].State().Digest() {
			t.Fatalf("org replica %d state diverges", j)
		}
	}
}

// TestAuthPrunedAtViewChange: a consensus node that leads again starts its
// term past every assignment of its earlier ones, and drops them — auth
// holds nothing at or below the watermark however often leadership rotates.
func TestAuthPrunedAtViewChange(t *testing.T) {
	cfg := smallConfig()
	cfg.ViewTimeout = 60 * time.Millisecond
	c, gen := buildCluster(t, cfg, defaultWorkload())
	// Whoever leads turns its sequencer to garbage every 100 ms: detection
	// deposes it with sequenced batches still arriving, so leadership goes
	// round the four consensus nodes more than twice.
	for at := 50 * time.Millisecond; at < 1200*time.Millisecond; at += 100 * time.Millisecond {
		c.Sim.At(at, func() { c.SetLeaderEvil(true) })
	}
	c.Sim.At(1200*time.Millisecond, func() { c.SetLeaderEvil(false) })
	for i := 0; i < 1200; i++ {
		c.SubmitAt(time.Duration(i)*time.Millisecond, gen.Batch(4)...)
	}
	c.Run(3 * time.Second)
	if vc := c.Collector.ViewChanges; vc < 8 {
		t.Fatalf("only %d view changes: leadership did not come round twice", vc)
	}
	for _, cn := range c.ConsNodes {
		for s := range cn.auth {
			if s <= cn.watermark {
				t.Fatalf("consensus node %d keeps assignment %d at or below its watermark %d (%d held)",
					cn.Idx, s, cn.watermark, len(cn.auth))
			}
		}
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}
