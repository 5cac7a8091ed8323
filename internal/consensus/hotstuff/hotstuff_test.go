package hotstuff

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/constest"
	"github.com/bidl-framework/bidl/internal/simnet"
)

func factory(cfg consensus.Config, host consensus.Host) consensus.Replica {
	return New(cfg, host)
}

func TestConformance(t *testing.T) {
	constest.RunConformance(t, factory, constest.ConformanceOptions{HasCerts: true})
}

func TestConformanceLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("larger cluster")
	}
	constest.RunConformance(t, factory, constest.ConformanceOptions{N: 10, F: 3, HasCerts: true})
}

func TestLinearMessageComplexity(t *testing.T) {
	// HotStuff replicas talk only to the leader: a follower's sent-message
	// count per decision is O(1) (votes) while PBFT's is O(n)
	// (all-to-all prepares+commits). Assert followers send ~4 messages
	// per decision regardless of cluster size.
	run := func(n, f int) float64 {
		c := constest.NewCluster(n, f, factory, constest.Options{})
		// A DropFilter that drops nothing sees every message a node sends.
		sent := make(map[simnet.NodeID]int)
		c.Net.DropFilter = func(from, _ simnet.NodeID, _ simnet.Message) bool {
			sent[from]++
			return false
		}
		const k = 10
		for i := 0; i < k; i++ {
			c.Propose(time.Duration(i)*time.Millisecond, constest.Val(string(rune('a'+i))))
		}
		c.Run(2 * time.Second)
		// Average sent messages per follower per decision.
		total, followers := 0, 0
		for i, node := range c.Nodes {
			if i == c.LeaderIdx() {
				continue
			}
			total += sent[node.Endpoint().ID()]
			followers++
		}
		return float64(total) / float64(followers) / k
	}
	small := run(4, 1)
	large := run(10, 3)
	if large > small*2 {
		t.Fatalf("follower message load grew with cluster size: %.1f → %.1f per decision", small, large)
	}
}

func TestEquivocationForcesPacemaker(t *testing.T) {
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: 20 * time.Millisecond})
	a, b := constest.Val("A"), constest.Val("B")
	for _, follower := range []int{1, 2, 3} {
		v := a
		if follower >= 2 {
			v = b
		}
		c.SendAs(time.Millisecond, 0, follower,
			&consensus.PhaseMsg{Kind: kindPrepare, View: 0, Seq: 0, Node: 0, Digest: v.Digest, Data: v.Data})
	}
	c.Run(2 * time.Second)
	for i := 1; i < 4; i++ {
		if c.Nodes[i].Replica().View() == 0 {
			t.Fatalf("node %d stuck in view 0 after leader equivocation", i)
		}
	}
}
