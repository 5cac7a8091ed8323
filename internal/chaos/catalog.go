package chaos

import "time"

// Entry is one chaos-catalog scenario: a declarative spec file (under
// examples/, so the same files feed `bidl run -scenario` and the smoke
// targets) paired with the invariants its fault schedule must preserve.
type Entry struct {
	ID string
	// File is the scenario spec path relative to the repository root.
	File       string
	Invariants Invariants
}

// Catalog returns the chaos scenario catalog in a stable order. Every
// fault kind that can be expressed in JSON appears at least once, and
// every entry asserts end-state consistency plus a liveness gate
// (trace-backed recovery and/or a committed-transaction floor).
func Catalog() []Entry {
	return []Entry{
		{
			ID:   "crash-restart",
			File: "examples/scenario-chaos-crash.json",
			Invariants: Invariants{
				RequireConsistent: true,
				MinCommitted:      1200,
				RecoveryFloor:     30,
				RecoverBy:         900 * time.Millisecond,
			},
		},
		{
			ID:   "partition-heal",
			File: "examples/scenario-chaos-partition.json",
			Invariants: Invariants{
				RequireConsistent: true,
				MinCommitted:      1200,
				RecoveryFloor:     30,
				RecoverBy:         900 * time.Millisecond,
			},
		},
		{
			ID:   "dc-outage",
			File: "examples/scenario-chaos-dc-outage.json",
			Invariants: Invariants{
				RequireConsistent: true,
				MinCommitted:      600,
				RecoveryFloor:     20,
				RecoverBy:         1100 * time.Millisecond,
			},
		},
		{
			ID:   "drop-storm",
			File: "examples/scenario-chaos-storm.json",
			Invariants: Invariants{
				RequireConsistent: true,
				MinCommitted:      800,
				MinViewChanges:    1,
				RecoveryFloor:     30,
				RecoverBy:         1 * time.Second,
			},
		},
		{
			ID:   "churn",
			File: "examples/scenario-chaos-churn.json",
			Invariants: Invariants{
				RequireConsistent: true,
				MinCommitted:      1400,
				RecoveryFloor:     30,
				RecoverBy:         1350 * time.Millisecond,
			},
		},
		{
			ID:   "seq-failover",
			File: "examples/scenario-chaos-seq-failover.json",
			Invariants: Invariants{
				RequireConsistent: true,
				MinCommitted:      800,
				MinViewChanges:    1,
				RecoveryFloor:     30,
				RecoverBy:         1 * time.Second,
			},
		},
		{
			ID:   "fabric-crash",
			File: "examples/scenario-chaos-fabric-crash.json",
			Invariants: Invariants{
				RequireConsistent: true,
				MinCommitted:      250,
				RecoveryFloor:     8,
				RecoverBy:         1 * time.Second,
			},
		},
	}
}

// Invariants is one catalog entry's machine-checkable postconditions.
// Zero-valued checks are skipped, so an entry states only what its fault
// schedule is supposed to preserve.
type Invariants struct {
	// RequireConsistent asserts the end-of-run safety audit passed:
	// every correct node's ledger and state agree (ledger.CheckConsistency
	// via the harness's CheckSafety).
	RequireConsistent bool
	// MinCommitted is the progress floor: the run must commit at least
	// this many transactions despite the faults.
	MinCommitted uint64
	// MinViewChanges asserts the faults actually provoked the protocol
	// (a drop storm that never forced a view change tested nothing).
	MinViewChanges uint64
	// RecoveryFloor and RecoverBy are the liveness gate: some trace
	// bucket starting at or after the last fault window's end must carry
	// at least RecoveryFloor commit notices, no later than RecoverBy.
	RecoveryFloor int
	RecoverBy     time.Duration
}
