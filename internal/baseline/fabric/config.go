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

	"github.com/bidl-framework/bidl/internal/substrate"
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

// Config parameterizes a baseline cluster: which framework it emulates on
// the deployment every framework shares. PerOrg counts peers, NumConsensus
// orderers. Protocol is "bft-smart" (PBFT) or "raft"; defaults: HLF →
// bft-smart, FastFabric/StreamChain → raft (their built-in, §6).
type Config struct {
	Variant Variant
	substrate.Config
}

// DefaultConfig mirrors evaluation setting A for the given variant.
func DefaultConfig(v Variant) Config {
	cfg := Config{Variant: v, Config: substrate.DefaultConfig()}
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
// derivation NewCluster performs (NumConsensus = 3F+1 when zero). A Config
// that validates builds a runnable cluster; scenario.Validate surfaces
// these errors before any cluster is constructed.
func (c Config) Validate() error {
	if c.NumConsensus == 0 {
		c.NumConsensus = 3*c.F + 1
	}
	if c.Variant != HLF && c.Variant != FastFabric && c.Variant != StreamChain {
		return fmt.Errorf("fabric: unknown variant %d", int(c.Variant))
	}
	if err := c.Config.Validate("fabric"); err != nil {
		return err
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
		if c.NumConsensus < need {
			return fmt.Errorf("fabric: NumConsensus %d cannot tolerate F=%d faults under %q (need >= %d)",
				c.NumConsensus, c.F, c.Protocol, need)
		}
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
