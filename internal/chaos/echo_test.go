package chaos

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/simnet"
)

// TestEchoAdversaryHarmlessUnderTriangleInequality: §5.2's first claim —
// with intact triangle inequality, re-broadcasting correct clients'
// transactions achieves nothing: the replay check discards every echoed
// copy, no client is suspected, and throughput is unaffected.
func TestEchoAdversaryHarmlessUnderTriangleInequality(t *testing.T) {
	cfg := testConfig()
	c, gen := build(t, cfg)
	e := NewEchoAdversary(c)
	e.Start(20 * time.Millisecond)
	load(c, gen, 0, 800, 500*time.Microsecond)
	c.Run(3 * time.Second)
	if e.Echoed == 0 {
		t.Fatal("echo adversary never fired")
	}
	if got := c.Collector.NumCommitted(); got != 800 {
		t.Fatalf("committed %d of 800 under echo attack", got)
	}
	for _, cn := range c.ConsNodes {
		if len(cn.Denylist()) != 0 {
			t.Fatalf("denylist non-empty under intact triangle inequality: %v", cn.Denylist())
		}
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// TestEchoAdversaryNeedsTriangleViolation: §5.2's second claim — framing a
// correct client requires beating the sequencer's delivery, i.e. a
// triangle-inequality violation. We break the inequality deliberately (the
// sequencer's path to half the nodes is 20x slower than the adversary's)
// and observe that conflicts now do get pinned on correct clients, while
// safety and liveness still hold (the denylist only disables speculation,
// §4.6).
func TestEchoAdversaryNeedsTriangleViolation(t *testing.T) {
	cfg := testConfig()
	c, gen := build(t, cfg)
	e := NewEchoAdversary(c)

	// Violate the triangle inequality: the sequencer's multicast reaches
	// half the normal nodes 2 ms late, while the adversary's copies travel
	// at the normal 0.1 ms.
	var slowTargets []simnet.NodeID
	for o := 0; o < len(c.Orgs); o += 2 {
		slowTargets = append(slowTargets, c.Orgs[o][0].Endpoint().ID())
	}
	var seqEps []simnet.NodeID
	for _, s := range c.Sequencers {
		seqEps = append(seqEps, s.Endpoint().ID())
	}
	c.Net.LatencyOverride = func(from, to simnet.NodeID) (time.Duration, bool) {
		for _, s := range seqEps {
			if from != s {
				continue
			}
			for _, v := range slowTargets {
				if to == v {
					return 2 * time.Millisecond, true
				}
			}
		}
		return 0, false
	}

	e.Start(20 * time.Millisecond)
	load(c, gen, 0, 1500, time.Millisecond)
	c.Run(4 * time.Second)

	if c.Collector.Conflicts == 0 {
		t.Fatal("triangle violation produced no conflicts")
	}
	// Liveness and safety survive even while correct clients get framed.
	if got := c.Collector.NumCommitted(); got < 1400 {
		t.Fatalf("committed %d of 1500", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}
