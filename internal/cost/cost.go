// Package cost defines the virtual CPU-time cost model charged by nodes in
// the simulation.
//
// The paper's performance arguments are quantitative in these constants: an
// Intel E5 core verifies fewer than 10k signatures per second (§4.1, so
// ~100 µs per verification), FastFabric's sequential MVCC check processes
// only 32.3k txns/s (§6.1, so ~31 µs per transaction), the DPDK sequencer
// adds ~20 µs per 1 KB transaction (§6), and smart-contract execution takes
// a fraction of a millisecond to several milliseconds (§2.2). Charging these
// costs in virtual time on single-core endpoints makes the paper's pipeline
// bottlenecks emerge from the model instead of being scripted.
package cost

import "time"

// Model is the set of per-operation virtual CPU costs.
type Model struct {
	// SigSign is the cost of producing one digital signature.
	SigSign time.Duration
	// SigVerify is the cost of verifying one digital signature
	// (paper: <10k/s per core on Intel E5 ⇒ ~100 µs).
	SigVerify time.Duration
	// MACCompute is the cost of computing one MAC.
	MACCompute time.Duration
	// MACVerify is the cost of verifying one MAC.
	MACVerify time.Duration
	// HashPerKB is the cost of hashing 1 KB of data (SHA-256).
	HashPerKB time.Duration
	// ExecTxn is the cost of executing one SmallBank transaction
	// (verify+simulate a smart contract invocation).
	ExecTxn time.Duration
	// MVCCCheck is the per-transaction cost of the sequential MVCC
	// validation in the HLF/FastFabric validate phase
	// (paper: 32.3k txns/s ⇒ ~31 µs).
	MVCCCheck time.Duration
	// CommitTxn is the per-transaction cost of writing committed state.
	CommitTxn time.Duration
	// SequencerPerTxn is the added delay of the software sequencer per
	// transaction (paper: ~20 µs for 1 KB transactions).
	SequencerPerTxn time.Duration
	// BlockOverhead is the fixed cost of assembling/validating one block's
	// metadata.
	BlockOverhead time.Duration
	// ThresholdSign is the cost of producing one threshold-signature share
	// (SBFT collectors).
	ThresholdSign time.Duration
	// ThresholdCombine is the cost of combining threshold shares.
	ThresholdCombine time.Duration
}

// Default returns the cost model calibrated to the paper's hardware
// (Intel 2.60 GHz E5-2690 v3).
func Default() Model {
	return Model{
		SigSign:          60 * time.Microsecond,
		SigVerify:        100 * time.Microsecond,
		MACCompute:       1 * time.Microsecond,
		MACVerify:        1 * time.Microsecond,
		HashPerKB:        2 * time.Microsecond,
		ExecTxn:          110 * time.Microsecond,
		MVCCCheck:        31 * time.Microsecond,
		CommitTxn:        4 * time.Microsecond,
		SequencerPerTxn:  20 * time.Microsecond,
		BlockOverhead:    200 * time.Microsecond,
		ThresholdSign:    150 * time.Microsecond,
		ThresholdCombine: 300 * time.Microsecond,
	}
}

// Hash returns the cost of hashing n bytes.
func (m Model) Hash(n int) time.Duration {
	return time.Duration(float64(m.HashPerKB) * float64(n) / 1024)
}
