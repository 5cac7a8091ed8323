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

	"github.com/bidl-framework/bidl/internal/substrate"
)

// Protocol names accepted by Config.Protocol: the BFT subset of what
// substrate.NewReplica builds.
const (
	ProtoPBFT     = substrate.ProtoPBFT // PBFT three-phase, the paper's default
	ProtoHotStuff = substrate.ProtoHotStuff
	ProtoZyzzyva  = substrate.ProtoZyzzyva
	ProtoSBFT     = substrate.ProtoSBFT
)

// Config parameterizes a BIDL cluster: the shared deployment fields (cluster
// shape, block and view timeouts, costs, network, seed, engine) plus BIDL's
// ablation switches. NumConsensus is 3F+1; consensus nodes belong to
// organizations round-robin.
type Config struct {
	substrate.Config

	// DisableDenylist turns off the §4.6 protocol ("BIDL w/o denylist",
	// Table 4). A denied client stays denied for the rest of the run (§4.6:
	// much longer than the detection window).
	DisableDenylist bool

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
}

// Batching and shepherding parameters no experiment, workload or flag varies.
const (
	// seqFlushInterval batches sequenced-transaction multicasts;
	// seqBatchMax flushes the sequencer batch early at this size.
	seqFlushInterval = time.Millisecond
	seqBatchMax      = 100
	// resultFlushInterval batches delegate result messages.
	resultFlushInterval = time.Millisecond
	// reexecThreshold is the per-view re-execution (mismatch) rate that
	// triggers a shepherd view change (the paper's 1 %, §4.5).
	reexecThreshold = 0.01
	// clientTimeout is how long clients wait before retransmitting to all
	// consensus nodes, and how long a consensus node then waits for the
	// relayed transactions before it requests a view change (§4.5 liveness
	// path).
	clientTimeout = 500 * time.Millisecond
)

// DefaultConfig mirrors the paper's evaluation setting A
// (substrate.DefaultConfig) under PBFT.
func DefaultConfig() Config {
	cfg := Config{Config: substrate.DefaultConfig()}
	cfg.Protocol = ProtoPBFT
	return cfg
}

func (c *Config) quorum() int { return 2*c.F + 1 }

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
	if err := c.Config.Validate("core"); err != nil {
		return err
	}
	if c.F > 0 && c.NumConsensus < 3*c.F+1 {
		return fmt.Errorf("core: NumConsensus %d cannot tolerate F=%d faults (need >= %d)",
			c.NumConsensus, c.F, 3*c.F+1)
	}
	switch c.Protocol {
	case "", ProtoPBFT, ProtoHotStuff, ProtoZyzzyva, ProtoSBFT:
	default:
		return fmt.Errorf("core: unknown protocol %q", c.Protocol)
	}
	return nil
}
