package scenario

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// TestShardedPersistStream runs a sharded deployment, one PERSIST stream per
// shard, and again with every normal node on its own tally: the adoptions,
// every normal node's commit height and state and each shard's ledger must
// be the same.
func TestShardedPersistStream(t *testing.T) {
	run := func(private bool) (adoptions, state string) {
		var out bytes.Buffer
		defer dense.SetPrivate(private)()
		defer core.SetPersistProbe(&core.PersistProbe{
			Adopted: func(node simnet.NodeID, seq uint64, at time.Duration, from int) {
				fmt.Fprintf(&out, "n%d seq=%d t=%d cn%d\n", node, seq, at, from)
			}})()
		var sb strings.Builder
		_, err := RunWith(shardedSpec(), RunConfig{Observe: func(h Harness) {
			sh := h.(*ShardedHarness)
			for i := 0; i < sh.NumShards(); i++ {
				c := sh.Shard(i)
				fmt.Fprintf(&sb, "shard %d ledger %x\n", i, c.LedgerDigest())
				for _, org := range c.Orgs {
					for _, nn := range org {
						fmt.Fprintf(&sb, "%s height=%d state=%x\n", nn.Endpoint().Name(), nn.CommitHeight(), nn.State().Digest())
					}
				}
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), sb.String()
	}
	sharedA, sharedS := run(false)
	privateA, privateS := run(true)
	if sharedA == "" || sharedA != privateA {
		t.Fatalf("%d bytes of adoptions on the streams, %d on private tallies, equal: %v", len(sharedA), len(privateA), sharedA == privateA)
	}
	if sharedS != privateS {
		t.Fatalf("on the streams\n%s\non private tallies\n%s", sharedS, privateS)
	}
}

// TestFabricSharedMatchesPrivate runs the benchmark's fabric spec and the
// chaos catalog's Fabric crash with the peers of a cluster sharing one world
// state and again with every peer on a state of its own (dense.SetPrivate):
// every peer's height, ledger tip and state, the collector's counts and the
// event count must be the same.
func TestFabricSharedMatchesPrivate(t *testing.T) {
	for _, file := range []string{"../../benchmark/workloads/fabric.json", "../../examples/scenario-chaos-fabric-crash.json"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		run := func(private bool) (out string, sharing, peers int) {
			defer dense.SetPrivate(private)()
			var sb strings.Builder
			res, err := RunWith(spec, RunConfig{Observe: func(h Harness) {
				for _, org := range h.(*fabric.Cluster).Peers {
					for _, p := range org {
						fmt.Fprintf(&sb, "%s height=%d tip=%x state=%x\n", p.Endpoint().Name(), p.CommitHeight(), p.Blocks().LastDigest(), p.State().Digest())
						if peers++; p.State().Sharing() {
							sharing++
						}
					}
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if res.SafetyErr != nil {
				t.Fatalf("%s: %v", file, res.SafetyErr)
			}
			fmt.Fprintf(&sb, "%s\nevents=%d\n", res.Summary, res.Events)
			if err := res.Collector.WriteSummary(&sb); err != nil {
				t.Fatal(err)
			}
			return sb.String(), sharing, peers
		}
		shared, sharing, peers := run(false)
		private, privateSharing, _ := run(true)
		if shared != private {
			t.Fatalf("%s: sharing one world state\n%s\neach peer on its own\n%s", file, shared, private)
		}
		if sharing == 0 || privateSharing != 0 {
			t.Fatalf("%s: %d of %d peers share at the end, %d with every peer private", file, sharing, peers, privateSharing)
		}
		t.Logf("%s: identical; %d of %d peers still share at the end", file, sharing, peers)
	}
}
