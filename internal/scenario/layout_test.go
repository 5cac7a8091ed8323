package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/simnet"
)

var layoutUpdate = flag.Bool("golden-update", false, "regenerate testdata/layout-*.golden")

// TestEndpointLayoutPinned pins where every endpoint of a deployment lands:
// endpoint id (registration order), name, datacenter and PDES partition, for
// a 2-datacenter / 4-worker layout of BIDL, of HLF and of a 2-shard BIDL
// deployment. Endpoint ids order same-instant events and partitions decide
// what may run concurrently, so a registration that moves is a different
// simulation even when every table still looks plausible. The goldens were
// recorded before the clusters' wiring moved into the shared substrate.
func TestEndpointLayoutPinned(t *testing.T) {
	base := Scenario{
		Nodes:      NodesSpec{Orgs: 5, PerOrg: 2, Datacenters: 2},
		Workload:   WorkloadSpec{Clients: 3, Accounts: 100},
		Load:       LoadSpec{Rate: 1000, Window: Duration(1e6), Drain: Duration(1e6)},
		SimWorkers: 4,
		Seed:       7,
	}
	cases := map[string]func(s *Scenario){
		"bidl":    func(s *Scenario) { s.Framework = FrameworkBIDL },
		"hlf":     func(s *Scenario) { s.Framework = FrameworkHLF },
		"sharded": func(s *Scenario) { s.Framework = FrameworkBIDL; s.Shards = 2 },
	}
	for name, mutate := range cases {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			s := base
			mutate(&s)
			var buf bytes.Buffer
			_, err := RunWith(s, RunConfig{Observe: func(h Harness) {
				var net *simnet.Network
				switch c := h.(type) {
				case *core.Cluster:
					net = c.Net
				case *fabric.Cluster:
					net = c.Net
				case *ShardedHarness:
					net = c.Shard(0).Net
				}
				for id := simnet.NodeID(0); net.Endpoint(id) != nil; id++ {
					ep := net.Endpoint(id)
					fmt.Fprintf(&buf, "%d %s dc=%d part=%d\n", id, ep.Name(), ep.DC(), ep.Partition())
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "layout-"+name+".golden")
			if *layoutUpdate {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("endpoint layout moved:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
			}
		})
	}
}
