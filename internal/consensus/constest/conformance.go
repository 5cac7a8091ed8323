package constest

import (
	"fmt"
	"testing"
	"time"
)

// ConformanceOptions selects which parts of the shared suite apply to a
// protocol.
type ConformanceOptions struct {
	// N and F size the cluster (defaults 4, 1).
	N, F int
	// HasCerts indicates the protocol emits verifiable certificates
	// (false for CFT protocols like Raft).
	HasCerts bool
	// CertQuorum is the signature quorum certificates must reach
	// (defaults to 2f+1).
	CertQuorum int
}

// RunConformance executes the protocol-independent consensus suite: safety
// (agreement, no duplicate delivery), liveness (fault-free progress, leader
// failover), certificate validity, and determinism.
func RunConformance(t *testing.T, factory Factory, opts ConformanceOptions) {
	if opts.N == 0 {
		opts.N, opts.F = 4, 1
	}
	if opts.CertQuorum == 0 {
		opts.CertQuorum = 2*opts.F + 1
	}

	t.Run("FaultFreeDecide", func(t *testing.T) {
		c := NewCluster(opts.N, opts.F, factory, Options{})
		const k = 10
		for i := 0; i < k; i++ {
			c.Propose(time.Duration(i)*time.Millisecond, Val(fmt.Sprintf("v%d", i)))
		}
		c.Run(2 * time.Second)
		for i, node := range c.Nodes {
			if got := len(node.DeliveredDigests()); got != k {
				t.Fatalf("node %d delivered %d values, want %d", i, got, k)
			}
			if dups := node.DuplicateDeliveries(); len(dups) != 0 {
				t.Fatalf("node %d delivered seqs %v more than once", i, dups)
			}
		}
	})

	t.Run("Agreement", func(t *testing.T) {
		c := NewCluster(opts.N, opts.F, factory, Options{})
		const k = 8
		for i := 0; i < k; i++ {
			c.Propose(time.Duration(i)*time.Millisecond, Val(fmt.Sprintf("v%d", i)))
		}
		c.Run(2 * time.Second)
		ref := c.Nodes[0].DeliveredDigests()
		if len(ref) != k {
			t.Fatalf("node 0 delivered %d, want %d", len(ref), k)
		}
		for i, node := range c.Nodes[1:] {
			got := node.DeliveredDigests()
			if len(got) != len(ref) {
				t.Fatalf("node %d delivered %d values, node 0 delivered %d", i+1, len(got), len(ref))
			}
			for s := range ref {
				if got[s] != ref[s] {
					t.Fatalf("node %d disagrees with node 0 at seq %d", i+1, s)
				}
			}
		}
	})

	if opts.HasCerts {
		t.Run("CertificatesVerify", func(t *testing.T) {
			c := NewCluster(opts.N, opts.F, factory, Options{})
			c.Propose(time.Millisecond, Val("certified"))
			c.Run(time.Second)
			for i, node := range c.Nodes {
				if len(node.Delivered) == 0 {
					t.Fatalf("node %d delivered nothing", i)
				}
				d := node.Delivered[0]
				if d.Cert == nil {
					t.Fatalf("node %d delivered without certificate", i)
				}
				if !d.Cert.Verify(c.Scheme, c.Identity, opts.CertQuorum) {
					t.Fatalf("node %d certificate does not verify at quorum %d", i, opts.CertQuorum)
				}
				if d.Cert.Digest != d.Val.Digest {
					t.Fatalf("node %d certificate digest mismatch", i)
				}
			}
		})
	}

	t.Run("LeaderFailover", func(t *testing.T) {
		c := NewCluster(opts.N, opts.F, factory, Options{ViewTimeout: 20 * time.Millisecond})
		// Decide something in view 0 first.
		c.Propose(time.Millisecond, Val("before"))
		c.Run(200 * time.Millisecond)
		oldLeader := c.LeaderIdx()
		// Crash the leader and have the hosts request a view change (the
		// shepherd/client-timeout path in BIDL, §4.5).
		c.Sim.At(c.Sim.Now(), func() {
			c.Nodes[oldLeader].Endpoint().SetDown(true)
			c.Nodes[oldLeader].DropOutgoing = true
			for i, n := range c.Nodes {
				if i == oldLeader {
					continue
				}
				n.WithCtx(func() { n.Rep.RequestViewChange() })
			}
		})
		c.Run(c.Sim.Now() + 500*time.Millisecond)
		// Propose in the new view at the new leader.
		var newLeader int
		for i, n := range c.Nodes {
			if i != oldLeader {
				newLeader = n.Rep.Leader()
				break
			}
		}
		if newLeader == oldLeader {
			t.Fatalf("leader did not change after failover (still %d)", oldLeader)
		}
		c.ProposeAt(newLeader, c.Sim.Now()+time.Millisecond, Val("after"))
		c.Run(c.Sim.Now() + time.Second)
		for i, node := range c.Nodes {
			if i == oldLeader {
				continue
			}
			found := false
			for _, d := range node.Delivered {
				if d.Val.Digest == Val("after").Digest {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d never delivered the post-failover value", i)
			}
			if dups := node.DuplicateDeliveries(); len(dups) != 0 {
				t.Fatalf("node %d duplicate deliveries %v after failover", i, dups)
			}
		}
	})

	t.Run("Deterministic", func(t *testing.T) {
		run := func() []string {
			c := NewCluster(opts.N, opts.F, factory, Options{Seed: 99})
			for i := 0; i < 5; i++ {
				c.Propose(time.Duration(i)*time.Millisecond, Val(fmt.Sprintf("v%d", i)))
			}
			c.Run(time.Second)
			var out []string
			for _, node := range c.Nodes {
				for _, d := range node.Delivered {
					out = append(out, fmt.Sprintf("%d:%d:%s:%v", node.Idx, d.Seq, d.Val.Digest, d.At))
				}
			}
			return out
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("runs produced %d vs %d deliveries", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("runs diverge at %d: %s vs %s", i, a[i], b[i])
			}
		}
	})

	t.Run("CrashedFollowerTolerated", func(t *testing.T) {
		c := NewCluster(opts.N, opts.F, factory, Options{})
		// Crash one non-leader before anything happens.
		victim := (c.LeaderIdx() + 1) % opts.N
		c.Sim.At(0, func() {
			c.Nodes[victim].Endpoint().SetDown(true)
			c.Nodes[victim].DropOutgoing = true
		})
		const k = 5
		for i := 0; i < k; i++ {
			c.Propose(time.Duration(i+1)*time.Millisecond, Val(fmt.Sprintf("v%d", i)))
		}
		c.Run(2 * time.Second)
		for i, node := range c.Nodes {
			if i == victim {
				continue
			}
			if got := len(node.DeliveredDigests()); got != k {
				t.Fatalf("node %d delivered %d with one crashed follower, want %d", i, got, k)
			}
		}
	})
}
