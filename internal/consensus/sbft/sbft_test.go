package sbft

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/constest"
	"github.com/bidl-framework/bidl/internal/trace"
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
	constest.RunConformance(t, factory, constest.ConformanceOptions{N: 7, F: 2, HasCerts: true})
}

func TestSingleCollectorStillDecides(t *testing.T) {
	one := func(cfg consensus.Config, host consensus.Host) consensus.Replica {
		return NewWithCollectors(cfg, host, 1)
	}
	c := constest.NewCluster(4, 1, one, constest.Options{})
	c.Propose(time.Millisecond, constest.Val("v"))
	c.Run(time.Second)
	for i, n := range c.Nodes {
		if len(n.Delivered) != 1 {
			t.Fatalf("node %d delivered %d with one collector", i, len(n.Delivered))
		}
	}
}

func TestCrashedCollectorRedundancy(t *testing.T) {
	// Default c=1 means collectors are leader(0) and node 1. Crashing
	// node 1 must not block progress: the leader also collects.
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: 40 * time.Millisecond})
	c.Sim.At(0, func() {
		c.Nodes[1].Endpoint().SetDown(true)
		c.Nodes[1].DropOutgoing = true
	})
	c.Propose(time.Millisecond, constest.Val("v"))
	c.Run(2 * time.Second)
	for _, i := range []int{0, 2, 3} {
		if len(c.Nodes[i].Delivered) != 1 {
			t.Fatalf("node %d delivered %d with collector crashed", i, len(c.Nodes[i].Delivered))
		}
	}
}

func TestReplicaVerifiesOneAggregate(t *testing.T) {
	// Non-collector replicas should see O(1) inbound protocol messages
	// per decision (pre-prepare + one commit proof per collector), unlike
	// PBFT's O(n).
	c := constest.NewCluster(7, 2, factory, constest.Options{})
	tr := trace.New(trace.Options{})
	c.Net.SetTracer(tr)
	const k = 5
	for i := 0; i < k; i++ {
		c.Propose(time.Duration(i)*time.Millisecond, constest.Val(string(rune('a'+i))))
	}
	c.Run(time.Second)
	// Node 5 is not leader (0) nor collector (0,1).
	var recv uint64
	for _, b := range tr.NodeBuckets(int(c.Nodes[5].Endpoint().ID())) {
		recv += b.Delivered
	}
	if recv == 0 {
		t.Fatal("non-collector received nothing")
	}
	if recv > uint64(k*4) {
		t.Fatalf("non-collector received %d messages for %d decisions; expected O(1) per decision", recv, k)
	}
}
