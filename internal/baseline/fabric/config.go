// Package fabric implements the three baseline permissioned-blockchain
// frameworks the paper compares against (§6, Baseline), all built on the
// execute→order→validate workflow:
//
//   - HLF: Hyperledger Fabric with a BFT ordering service (BFT-SMaRt
//     stand-in). The ordering leader disseminates full transaction payloads
//     to all consensus nodes, which is why HLF survives a malicious leader
//     (Table 4 S2). Validation runs VSCC (endorsement signature checks) and
//     the sequential MVCC check on every peer.
//   - FastFabric: Gorenflo et al.'s re-architected Fabric: a single trusted
//     orderer sends only transaction hashes into a Raft consensus,
//     validation is pipelined so only the sequential MVCC check (~32.3k
//     txns/s, §6.1) sits on the critical path. Its trust assumptions make
//     the malicious-participant scenarios inapplicable (Table 4 N/A).
//   - StreamChain: processes transactions in a stream (block size 1),
//     trading peak throughput for very low latency (§6.1).
//
// All three share the endorsement flow: clients collect signed read-write
// sets from one peer per related organization, then submit the assembled
// envelope to the ordering service. Contending transactions endorsed in
// parallel abort in MVCC validation — the behaviour BIDL eliminates (§6.3).
package fabric

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/cost"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/trace"
)

// Variant selects which baseline framework a cluster emulates.
type Variant int

// The three baseline frameworks.
const (
	HLF Variant = iota
	FastFabric
	StreamChain
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case FastFabric:
		return "fastfabric"
	case StreamChain:
		return "streamchain"
	default:
		return "hlf"
	}
}

// Config parameterizes a baseline cluster.
type Config struct {
	Variant Variant

	// NumOrgs organizations with PeersPerOrg peers each.
	NumOrgs     int
	PeersPerOrg int
	// NumOrderers ordering-service nodes tolerating F faults.
	NumOrderers int
	F           int
	// Protocol: "bft-smart" (PBFT) or "raft". Defaults: HLF → bft-smart,
	// FastFabric/StreamChain → raft (their built-in, §6).
	Protocol string

	BlockSize    int
	BlockTimeout time.Duration
	ViewTimeout  time.Duration

	Costs    cost.Model
	Topology simnet.Topology
	NumDCs   int
	Seed     int64

	// SimWorkers requests conservative parallel discrete-event execution
	// with this many worker goroutines; values below 2 keep the serial
	// engine. Orderers and clients share the hub partition, peer
	// organizations shard over the rest (see core.Config.SimWorkers).
	SimWorkers int

	// Tracer, when non-nil, records per-transaction lifecycle spans and
	// node/link telemetry (see internal/trace). Nil disables tracing.
	Tracer *trace.Tracer
}

// DefaultConfig mirrors evaluation setting A for the given variant.
func DefaultConfig(v Variant) Config {
	cfg := Config{
		Variant:      v,
		NumOrgs:      50,
		PeersPerOrg:  1,
		NumOrderers:  4,
		F:            1,
		BlockSize:    500,
		BlockTimeout: 10 * time.Millisecond,
		ViewTimeout:  150 * time.Millisecond,
		Costs:        cost.Default(),
		Topology:     simnet.DefaultTopology(),
		NumDCs:       1,
		Seed:         1,
	}
	switch v {
	case HLF:
		cfg.Protocol = substrate.ProtoPBFT
	case FastFabric:
		cfg.Protocol = substrate.ProtoRaft
	case StreamChain:
		cfg.Protocol = substrate.ProtoRaft
		cfg.BlockSize = 1
		cfg.BlockTimeout = 500 * time.Microsecond
	}
	return cfg
}

func (c Config) quorum() int { return 2*c.F + 1 }

// Validate reports the first configuration error, after applying the same
// derivation NewCluster performs (NumOrderers = 3F+1 when zero). A Config
// that validates builds a runnable cluster; scenario.Validate surfaces
// these errors before any cluster is constructed.
func (c Config) Validate() error {
	if c.NumOrderers == 0 {
		c.NumOrderers = 3*c.F + 1
	}
	switch {
	case c.Variant != HLF && c.Variant != FastFabric && c.Variant != StreamChain:
		return fmt.Errorf("fabric: unknown variant %d", int(c.Variant))
	case c.NumOrgs < 1:
		return fmt.Errorf("fabric: NumOrgs must be >= 1 (got %d)", c.NumOrgs)
	case c.PeersPerOrg < 1:
		return fmt.Errorf("fabric: PeersPerOrg must be >= 1 (got %d)", c.PeersPerOrg)
	case c.NumOrderers < 1:
		return fmt.Errorf("fabric: NumOrderers must be >= 1 (got %d)", c.NumOrderers)
	case c.F < 0:
		return fmt.Errorf("fabric: F must be >= 0 (got %d)", c.F)
	case c.BlockSize < 1:
		return fmt.Errorf("fabric: BlockSize must be >= 1 (got %d)", c.BlockSize)
	case c.BlockTimeout <= 0:
		// A deposed leader with envelopes still queued re-arms its batch
		// timer every BlockTimeout: at zero it spins at one virtual instant
		// and Run never returns.
		return fmt.Errorf("fabric: BlockTimeout must be > 0 (got %s)", c.BlockTimeout)
	case c.ViewTimeout < 0:
		return fmt.Errorf("fabric: ViewTimeout must be >= 0 (got %s)", c.ViewTimeout)
	case c.NumDCs < 0:
		return fmt.Errorf("fabric: NumDCs must be >= 0 (got %d)", c.NumDCs)
	case c.SimWorkers < 0:
		return fmt.Errorf("fabric: SimWorkers must be >= 0 (got %d)", c.SimWorkers)
	}
	switch c.Protocol {
	case "", substrate.ProtoPBFT, substrate.ProtoRaft:
	default:
		return fmt.Errorf("fabric: unknown protocol %q", c.Protocol)
	}
	// Raft is crash-fault tolerant (2F+1); the BFT ordering service needs
	// 3F+1.
	if c.F > 0 {
		need := 3*c.F + 1
		if c.Protocol == substrate.ProtoRaft {
			need = 2*c.F + 1
		}
		if c.NumOrderers < need {
			return fmt.Errorf("fabric: NumOrderers %d cannot tolerate F=%d faults under %q (need >= %d)",
				c.NumOrderers, c.F, c.Protocol, need)
		}
	}
	if err := c.Topology.Validate(); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	return nil
}

// endorsePerTxn returns the endorsement critical-path cost. FastFabric and
// StreamChain pipeline signature work off the critical path (FastFabric's
// re-architecture) and authenticate responses at MAC rate; HLF pays full
// signature costs.
func (c Config) endorsePerTxn() (verify, sign time.Duration) {
	switch c.Variant {
	case HLF:
		return c.Costs.SigVerify, c.Costs.SigSign
	default:
		return c.Costs.MACVerify, c.Costs.MACCompute
	}
}

// validatePerTxn returns the critical-path validation cost per transaction.
func (c Config) validatePerTxn() time.Duration {
	switch c.Variant {
	case HLF:
		// Sequential VSCC (batched endorsement verification) + MVCC.
		return c.Costs.MVCCCheck + c.Costs.SigVerify
	default:
		// FastFabric/StreamChain pipeline VSCC off the critical path;
		// the sequential MVCC check remains (§6.1: 32.3k txns/s).
		return c.Costs.MVCCCheck + 2*time.Microsecond
	}
}
