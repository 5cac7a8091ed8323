package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/cost"
)

// everyFieldSpec sets every protocol/seed/nodes/topology/tuning/
// costs field to a distinct non-default value, so a lowering that drops one
// line shows up as a default in the golden.
func everyFieldSpec(protocol string) Scenario {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	return Scenario{
		Protocol: protocol,
		Seed:     23,
		Nodes:    NodesSpec{Orgs: 11, PerOrg: 3, Consensus: 13, Faults: 2, Datacenters: 5},
		Topology: TopologySpec{InterDCGbps: 1.5, Jitter: Duration(us(19)), LossRate: 0.03},
		Tuning: TuningSpec{
			BlockSize: 123, BlockTimeout: Duration(us(3100)), ViewTimeout: Duration(us(91000)),
			DisableDenylist: true, DisableMulticast: true, ConsensusOnPayload: true, DisableSpeculation: true,
		},
		Costs: &cost.Model{
			SigSign: us(61), SigVerify: us(101), MACCompute: us(2), MACVerify: us(3),
			HashPerKB: us(4), ExecTxn: us(111), MVCCCheck: us(32), CommitTxn: us(5),
			SequencerPerTxn: us(21), BlockOverhead: us(201), ThresholdSign: us(151), ThresholdCombine: us(301),
		},
	}
}

// renderBIDL and renderFabric name every compiled field by what it means, not
// by its Go name, so renaming a config field leaves the goldens alone.
func renderBIDL(b *bytes.Buffer, c core.Config) {
	fmt.Fprintf(b, "orgs=%d\nper_org=%d\nconsensus=%d\nf=%d\nprotocol=%s\n",
		c.NumOrgs, c.PerOrg, c.NumConsensus, c.F, c.Protocol)
	fmt.Fprintf(b, "block_size=%d\nblock_timeout=%s\nview_timeout=%s\n",
		c.BlockSize, c.BlockTimeout, c.ViewTimeout)
	fmt.Fprintf(b, "disable_denylist=%t\ndisable_multicast=%t\nconsensus_on_payload=%t\ndisable_speculation=%t\n",
		c.DisableDenylist, c.DisableMulticast, c.ConsensusOnPayload, c.DisableSpeculation)
	fmt.Fprintf(b, "costs=%+v\ntopology=%+v\ndcs=%d\nseed=%d\ntraced=%t\n",
		c.Costs, c.Topology, c.NumDCs, c.Seed, c.Tracer != nil)
}

func renderFabric(b *bytes.Buffer, c fabric.Config) {
	fmt.Fprintf(b, "variant=%s\norgs=%d\nper_org=%d\nconsensus=%d\nf=%d\nprotocol=%s\n",
		c.Variant, c.NumOrgs, c.PerOrg, c.NumConsensus, c.F, c.Protocol)
	fmt.Fprintf(b, "block_size=%d\nblock_timeout=%s\nview_timeout=%s\n",
		c.BlockSize, c.BlockTimeout, c.ViewTimeout)
	fmt.Fprintf(b, "costs=%+v\ntopology=%+v\ndcs=%d\nseed=%d\ntraced=%t\n",
		c.Costs, c.Topology, c.NumDCs, c.Seed, c.Tracer != nil)
}

// TestLoweringPinned pins what each spec field compiles to, for every
// framework: several tuning and topology keys and the costs are set by no
// example, workload or experiment, so nothing else would notice a line lost
// from the spec → config lowering. The goldens were recorded before the BIDL
// and baseline lowerings were merged.
func TestLoweringPinned(t *testing.T) {
	// The non-default protocol of each framework.
	protocols := map[string]string{
		FrameworkBIDL:        core.ProtoHotStuff,
		FrameworkHLF:         "raft",
		FrameworkFastFabric:  "bft-smart",
		FrameworkStreamChain: "bft-smart",
	}
	for fw, protocol := range protocols {
		fw, protocol := fw, protocol
		t.Run(fw, func(t *testing.T) {
			specs := []struct {
				name string
				s    Scenario
			}{
				{"empty", Scenario{}},
				{"every-field", everyFieldSpec(protocol)},
				{"consensus-7", Scenario{Nodes: NodesSpec{Consensus: 7}}},
				{"consensus-7-faults-2", Scenario{Nodes: NodesSpec{Consensus: 7, Faults: 2}}},
				// Too few nodes to derive f from: the default f=1 must not survive.
				{"consensus-3", Scenario{Nodes: NodesSpec{Consensus: 3}}},
				// The eleven costs it leaves zero keep their defaults.
				{"costs-one-field", Scenario{Costs: &cost.Model{SigVerify: 77 * time.Microsecond}}},
			}
			var buf bytes.Buffer
			for _, sp := range specs {
				s := sp.s
				s.Framework = fw
				fmt.Fprintf(&buf, "== %s ==\n", sp.name)
				if fw == FrameworkBIDL {
					renderBIDL(&buf, s.bidlConfig())
				} else {
					renderFabric(&buf, s.fabricConfig())
				}
			}
			path := filepath.Join("testdata", "lowering-"+fw+".golden")
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
				t.Fatalf("lowering moved:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
			}
		})
	}
}
