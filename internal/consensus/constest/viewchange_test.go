package constest_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/constest"
	"github.com/bidl-framework/bidl/internal/consensus/hotstuff"
	"github.com/bidl-framework/bidl/internal/consensus/pbft"
	"github.com/bidl-framework/bidl/internal/consensus/sbft"
	"github.com/bidl-framework/bidl/internal/consensus/zyzzyva"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// -golden-update rewrites the view-change transcripts from the current
// behaviour. They pin every observable effect of the four BFT protocols'
// view changes, so regenerate them only for a deliberate protocol change:
//
//	go test ./internal/consensus/constest -run TestViewChangeTranscripts -golden-update
var goldenUpdate = flag.Bool("golden-update", false, "rewrite the view-change transcript goldens")

var protocols = []struct {
	name    string
	factory constest.Factory
}{
	{"pbft", func(c consensus.Config, h consensus.Host) consensus.Replica { return pbft.New(c, h) }},
	{"sbft", func(c consensus.Config, h consensus.Host) consensus.Replica { return sbft.New(c, h) }},
	{"zyzzyva", func(c consensus.Config, h consensus.Host) consensus.Replica { return zyzzyva.New(c, h) }},
	{"hotstuff", func(c consensus.Config, h consensus.Host) consensus.Replica { return hotstuff.New(c, h) }},
}

// A schedule drives one cluster through a view change. Leaders are
// round-robin, so node v%n leads view v.
type schedule struct {
	name string
	minN int
	opts constest.Options
	run  func(c *constest.Cluster)
}

// crash silences nodes at time d, mid-flight for whatever was proposed just
// before, and has every live host request a view change (§4.5).
func crash(c *constest.Cluster, d time.Duration, nodes ...int) {
	c.Sim.At(d, func() {
		for _, i := range nodes {
			c.Nodes[i].Endpoint().SetDown(true)
			c.Nodes[i].DropOutgoing = true
		}
	})
	c.RequestViewChangeAll(d)
}

func proposeN(c *constest.Cluster, node int, from time.Duration, tag string, k int) {
	for i := 0; i < k; i++ {
		c.ProposeAt(node, from+time.Duration(i)*time.Millisecond, constest.Val(fmt.Sprintf("%s%d", tag, i)))
	}
}

// inflight proposes five values shortly before t. One-way latency is 100 µs
// and a decision takes 0.6 ms (pbft) to 1.9 ms (hotstuff), so at t they sit
// in different phases at different nodes: decided here, prepared or locked
// there, merely proposed elsewhere.
func inflight(c *constest.Cluster, node int, t time.Duration) {
	for i, lead := range []time.Duration{1500, 1000, 350, 250, 150} {
		c.ProposeAt(node, t-lead*time.Microsecond, constest.Val(fmt.Sprintf("inflight%d", i)))
	}
}

// crashSchedule: three values decide in view 0 and five more are in flight
// when the first len(dead) leaders die at once; the first live leader
// re-proposes them and takes three more. With two dead, nobody installs view
// 1 and the escalation timer carries the cluster to view 2.
func crashSchedule(name string, minN int, dead ...int) schedule {
	return schedule{
		name: name,
		minN: minN,
		opts: constest.Options{ViewTimeout: 20 * time.Millisecond},
		run: func(c *constest.Cluster) {
			proposeN(c, 0, time.Millisecond, "before", 3)
			inflight(c, 0, 10*time.Millisecond)
			crash(c, 10*time.Millisecond, dead...)
			proposeN(c, len(dead), 100*time.Millisecond, "after", 3)
			c.Run(time.Second)
		},
	}
}

var schedules = []schedule{
	crashSchedule("leader-crash", 4, 0),
	crashSchedule("two-leaders-crash", 7, 0, 1),
	{
		// 8 % loss: progress timers fire, view changes overlap with decisions,
		// proposals reach replicas that no longer (or do not yet) lead.
		name: "lossy",
		opts: constest.Options{ViewTimeout: 20 * time.Millisecond, Topology: lossy(0.08)},
		run: func(c *constest.Cluster) {
			for i := 0; i < 30; i++ {
				c.Propose(time.Duration(i+1)*time.Millisecond, constest.Val(fmt.Sprintf("v%d", i)))
			}
			c.Run(2 * time.Second)
		},
	},
}

func lossy(rate float64) *simnet.Topology {
	t := simnet.DefaultTopology()
	t.LossRate = rate
	return &t
}

// transcript runs one schedule and renders everything the hosts and the
// network observed.
func transcript(factory constest.Factory, n, f int, s schedule) []byte {
	opts := s.opts
	opts.Seed = 7
	c := constest.NewCluster(n, f, factory, opts)
	for i, node := range c.Nodes {
		node.Meta = []byte{byte('a' + i)}
	}
	s.run(c)
	var b bytes.Buffer
	for i, node := range c.Nodes {
		fmt.Fprintf(&b, "node %d: final view %d\n", i, node.Replica().View())
		for _, d := range node.Delivered {
			fmt.Fprintf(&b, "  deliver seq=%d digest=%s at=%v\n", d.Seq, d.Val.Digest, d.At)
		}
		for j, v := range node.Views {
			fmt.Fprintf(&b, "  view %d leader=%d metas=%q\n", v, node.Leaders[j], node.Metas[j])
		}
	}
	fmt.Fprintf(&b, "events=%d bytes=%d\n", c.Sim.Events(), c.Net.TotalBytes())
	return b.Bytes()
}

// TestViewChangeTranscripts pins the four protocols' view changes byte for
// byte: per node every delivery (seq, digest, virtual time) and every
// announced view (view, leader, piggybacked metas), the final view, and the
// run's total events and bytes sent — message sizes feed the network model,
// so a changed wire size shows up in the delivery times and the byte total.
func TestViewChangeTranscripts(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			var got bytes.Buffer
			for _, size := range [][2]int{{4, 1}, {7, 2}} {
				for _, s := range schedules {
					if size[0] < s.minN {
						continue
					}
					a := transcript(p.factory, size[0], size[1], s)
					if again := transcript(p.factory, size[0], size[1], s); !bytes.Equal(a, again) {
						t.Fatalf("n=%d %s: same seed, different transcript:\n%s\nvs\n%s", size[0], s.name, a, again)
					}
					fmt.Fprintf(&got, "== %s n=%d f=%d %s\n%s", p.name, size[0], size[1], s.name, a)
				}
			}
			path := filepath.Join("testdata", "viewchange-"+p.name+".golden")
			if *goldenUpdate {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -golden-update): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("view-change transcript differs from %s:\n%s", path, got.Bytes())
			}
		})
	}
}
