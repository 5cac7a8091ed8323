package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// TestShardedPersistStream runs a sharded deployment, one PERSIST stream per
// shard, and again with every normal node on its own tally: the adoptions,
// every normal node's commit height and state and each shard's ledger must
// be the same.
func TestShardedPersistStream(t *testing.T) {
	run := func(private bool) (adoptions, state string) {
		var out bytes.Buffer
		defer core.SetPersistProbe(&core.PersistProbe{Private: private,
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
