package chaos_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// TestPersistStreamOnCatalog runs every BIDL entry of the catalog with the
// normal nodes' shared PERSIST stream and with each node on its own tally:
// the adoptions (node, sequence number, virtual time, completing consensus
// node), every normal node's commit height and state and the ledger must be
// the same.
func TestPersistStreamOnCatalog(t *testing.T) {
	for _, e := range chaos.Catalog() {
		data, err := os.ReadFile(filepath.Join("..", "..", e.File))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Framework != "bidl" {
			continue
		}
		run := func(private bool) (adoptions, state string) {
			var out bytes.Buffer
			defer dense.SetPrivate(private)()
			defer core.SetPersistProbe(&core.PersistProbe{
				Adopted: func(node simnet.NodeID, seq uint64, at time.Duration, from int) {
					fmt.Fprintf(&out, "n%d seq=%d t=%d cn%d\n", node, seq, at, from)
				}})()
			_, err := scenario.RunWith(spec, scenario.RunConfig{Observe: func(h scenario.Harness) {
				state = nodeStates(h.(*core.Cluster))
			}})
			if err != nil {
				t.Fatal(err)
			}
			return out.String(), state
		}
		sharedA, sharedS := run(false)
		privateA, privateS := run(true)
		if sharedA != privateA {
			got, want := strings.Split(sharedA, "\n"), strings.Split(privateA, "\n")
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("%s: adoption %d on the stream %q, on private tallies %q", e.ID, i+1, got[i], strings.Join(want[min(i, len(want)):min(i+1, len(want))], ""))
				}
			}
			t.Fatalf("%s: %d adoptions on the stream, %d on private tallies", e.ID, len(got), len(want))
		}
		if sharedS != privateS {
			t.Fatalf("%s: on the stream\n%s\non private tallies\n%s", e.ID, sharedS, privateS)
		}
		t.Logf("%s: %d adoptions identical", e.ID, strings.Count(sharedA, "\n"))
	}
}

// nodeStates is every normal node's commit height and state digest and the
// cluster's ledger digest.
func nodeStates(c *core.Cluster) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ledger %x\n", c.LedgerDigest())
	for _, org := range c.Orgs {
		for _, nn := range org {
			fmt.Fprintf(&sb, "%s height=%d state=%x\n", nn.Endpoint().Name(), nn.CommitHeight(), nn.State().Digest())
		}
	}
	return sb.String()
}
