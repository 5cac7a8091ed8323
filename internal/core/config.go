// Package core implements BIDL's shepherded parallel workflow (§3–§4): the
// software sequencer (Phase 2), consensus nodes driving a blackbox BFT
// protocol on transaction hashes (Phase 3), normal nodes speculatively
// executing sequenced transactions (Phase 4-1), the multi-write persist
// protocol for non-deterministic results (Phase 4-2), commit (Phase 5), and
// the shepherding machinery: re-execution monitoring, proactive view
// changes, unpredictable epoch-based leader rotation, and the denylist
// protocol (§4.5–§4.6).
package core

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/cost"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/trace"
)

// Protocol names accepted by Config.Protocol: the BFT subset of what
// substrate.NewReplica builds.
const (
	ProtoPBFT     = substrate.ProtoPBFT // PBFT three-phase, the paper's default
	ProtoHotStuff = substrate.ProtoHotStuff
	ProtoZyzzyva  = substrate.ProtoZyzzyva
	ProtoSBFT     = substrate.ProtoSBFT
)

// Config parameterizes a BIDL cluster.
type Config struct {
	// NumOrgs is the number of organizations. Normal nodes are grouped
	// into organizations; each consensus node also belongs to an
	// organization (round-robin).
	NumOrgs int
	// NormalPerOrg is the number of normal nodes per organization.
	NormalPerOrg int
	// NumConsensus is the number of consensus nodes (3f+1).
	NumConsensus int
	// F is the number of tolerated Byzantine consensus nodes.
	F int

	// Protocol selects the BFT protocol (ProtoPBFT by default).
	Protocol string

	// BlockSize is the number of transactions per block (paper: 500).
	BlockSize int
	// BlockTimeout proposes a partial block when it elapses (must be > 0).
	BlockTimeout time.Duration
	// ViewTimeout is the consensus progress timeout.
	ViewTimeout time.Duration
	// ClientTimeout is how long clients wait before retransmitting to all
	// consensus nodes (§4.5 liveness path).
	ClientTimeout time.Duration

	// SeqFlushInterval batches sequenced-transaction multicasts.
	SeqFlushInterval time.Duration
	// SeqBatchMax flushes the sequencer batch early at this size.
	SeqBatchMax int
	// ResultFlushInterval batches delegate result messages.
	ResultFlushInterval time.Duration

	// ReexecThreshold is the per-view re-execution (mismatch) rate that
	// triggers a shepherd view change (paper default 1%, §4.5).
	ReexecThreshold float64

	// DisableDenylist turns off the §4.6 protocol ("BIDL w/o denylist",
	// Table 4).
	DisableDenylist bool
	// DenyRejoin is how long a denied client stays denied (§4.6: much
	// longer than the detection window). Zero means forever.
	DenyRejoin time.Duration

	// DisableMulticast sends sequenced transactions as N unicasts
	// ("BIDL-opt-disabled", Fig 9).
	DisableMulticast bool
	// ConsensusOnPayload runs consensus on full transaction payloads
	// instead of hashes (the other half of "BIDL-opt-disabled").
	ConsensusOnPayload bool

	// DisableSpeculation turns off Phase 4-1 entirely: transactions
	// execute sequentially at commit time — the sequential workflow BIDL's
	// parallel design is measured against (ablation).
	DisableSpeculation bool

	// SampleVerify is how many transactions per assembled block a
	// consensus node signature-samples to catch a garbage-proposing
	// leader (Table 4 S2). Zero disables sampling.
	SampleVerify int

	// KeyOwner maps world-state keys to owning organizations for result
	// partitioning; nil selects the SmallBank layout.
	KeyOwner contract.KeyOwnerFunc
	// Costs is the virtual CPU cost model.
	Costs cost.Model
	// Topology describes the network; NumDCs spreads nodes round-robin
	// over that many datacenters.
	Topology simnet.Topology
	NumDCs   int
	// Seed drives all simulation randomness.
	Seed int64

	// SimWorkers requests conservative parallel discrete-event execution
	// (PDES) with this many worker goroutines. Values below 2 keep the
	// serial engine. The cluster partitions the event queue by node group —
	// consensus nodes, sequencers, and clients share the hub partition;
	// organizations spread over the rest — and a parallel run is
	// byte-identical to a serial run of the same partitioned cluster.
	SimWorkers int

	// Tracer, when non-nil, records per-transaction lifecycle spans and
	// node/link telemetry for the whole cluster (see internal/trace). Nil
	// disables tracing at zero cost.
	Tracer *trace.Tracer
}

// DefaultConfig mirrors the paper's evaluation setting A: four consensus
// nodes (f=1) and 50 organizations with one normal node each, 500-txn
// blocks, in one datacenter.
func DefaultConfig() Config {
	return Config{
		NumOrgs:             50,
		NormalPerOrg:        1,
		NumConsensus:        4,
		F:                   1,
		Protocol:            ProtoPBFT,
		BlockSize:           500,
		BlockTimeout:        10 * time.Millisecond,
		ViewTimeout:         150 * time.Millisecond,
		ClientTimeout:       500 * time.Millisecond,
		SeqFlushInterval:    time.Millisecond,
		SeqBatchMax:         100,
		ResultFlushInterval: time.Millisecond,
		ReexecThreshold:     0.01,
		DenyRejoin:          0, // never rejoin within an experiment
		SampleVerify:        8,
		Costs:               cost.Default(),
		Topology:            simnet.DefaultTopology(),
		NumDCs:              1,
		Seed:                1,
	}
}

func (c Config) quorum() int { return 2*c.F + 1 }

// Validate reports the first configuration error, after applying the same
// derivations NewCluster performs (NumConsensus = 3F+1 when zero, F =
// (NumConsensus-1)/3 when zero and NumConsensus >= 4). A Config that
// validates builds a runnable cluster; one that does not would previously
// have failed deep inside the simulation (divide-by-zero, empty quorums),
// so callers — in particular scenario.Validate — should check before
// constructing a cluster.
func (c Config) Validate() error {
	if c.NumConsensus == 0 {
		c.NumConsensus = 3*c.F + 1
	}
	if c.F == 0 && c.NumConsensus >= 4 {
		c.F = (c.NumConsensus - 1) / 3
	}
	switch {
	case c.NumOrgs < 1:
		return fmt.Errorf("core: NumOrgs must be >= 1 (got %d)", c.NumOrgs)
	case c.NormalPerOrg < 1:
		return fmt.Errorf("core: NormalPerOrg must be >= 1 (got %d)", c.NormalPerOrg)
	case c.NumConsensus < 1:
		return fmt.Errorf("core: NumConsensus must be >= 1 (got %d)", c.NumConsensus)
	case c.F < 0:
		return fmt.Errorf("core: F must be >= 0 (got %d)", c.F)
	case c.F > 0 && c.NumConsensus < 3*c.F+1:
		return fmt.Errorf("core: NumConsensus %d cannot tolerate F=%d faults (need >= %d)",
			c.NumConsensus, c.F, 3*c.F+1)
	case c.BlockSize < 1:
		return fmt.Errorf("core: BlockSize must be >= 1 (got %d)", c.BlockSize)
	case c.NumDCs < 0:
		return fmt.Errorf("core: NumDCs must be >= 0 (got %d)", c.NumDCs)
	case c.ReexecThreshold < 0 || c.ReexecThreshold > 1:
		return fmt.Errorf("core: ReexecThreshold must be in [0,1] (got %g)", c.ReexecThreshold)
	case c.SampleVerify < 0:
		return fmt.Errorf("core: SampleVerify must be >= 0 (got %d)", c.SampleVerify)
	case c.SeqBatchMax < 0:
		return fmt.Errorf("core: SeqBatchMax must be >= 0 (got %d)", c.SeqBatchMax)
	case c.SimWorkers < 0:
		return fmt.Errorf("core: SimWorkers must be >= 0 (got %d)", c.SimWorkers)
	case c.BlockTimeout <= 0:
		// Persist-vote retries and status ticks re-arm every 2×BlockTimeout:
		// at zero they spin at one virtual instant and Run never returns.
		return fmt.Errorf("core: BlockTimeout must be > 0 (got %s)", c.BlockTimeout)
	}
	switch c.Protocol {
	case "", ProtoPBFT, ProtoHotStuff, ProtoZyzzyva, ProtoSBFT:
	default:
		return fmt.Errorf("core: unknown protocol %q", c.Protocol)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"ViewTimeout", c.ViewTimeout},
		{"ClientTimeout", c.ClientTimeout},
		{"SeqFlushInterval", c.SeqFlushInterval},
		{"ResultFlushInterval", c.ResultFlushInterval},
		{"DenyRejoin", c.DenyRejoin},
	} {
		if d.v < 0 {
			return fmt.Errorf("core: %s must be >= 0 (got %s)", d.name, d.v)
		}
	}
	if err := c.Topology.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
