// Package chaos is the fault-injection engine: a declarative schedule of
// typed fault events (crashes with state catch-up, partitions that heal,
// datacenter outages, message-drop storms, long-horizon churn, sequencer
// equivocation, and the paper's §6.2 adversaries) compiled onto a running
// simulation, paired with a machine-checkable invariant engine that turns a
// finished run into a pass/fail report (consistency, progress, liveness
// expressed as recovery time).
//
// There is one fault type from JSON to injector: Fault carries the spec's
// JSON tags (a scenario's `faults` array is a []Fault) and is what Install
// schedules; ValidateSchedule lives beside it.
// The same schedule drives the BIDL cluster and the Fabric baselines: rosters
// come from the substrate.Deployment both embed, and the two operations that
// differ per framework (who leads, how its leader turns malicious) are the
// Env interface both clusters implement. The §6.2 adversaries that race the
// sequencer multicast (Broadcaster, EchoAdversary) exist for BIDL only.
package chaos

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/types"
)

// Fault kinds accepted by Fault.Kind.
const (
	// KindCrash takes one node down at At; with Duration > 0 it restarts
	// after the window and catches up from committed state, with
	// Duration == 0 the crash is permanent.
	KindCrash = "crash"
	// KindPartition isolates one organization from the rest of the
	// cluster for the window, then heals.
	KindPartition = "partition"
	// KindDCOutage crashes every endpoint in one datacenter for the
	// window — the correlated-failure case a per-node crash cannot model.
	KindDCOutage = "dc_outage"
	// KindDropStorm drops each message sent by the current leader's
	// consensus endpoint with probability Rate during the window, forcing
	// repeated view changes as the storm chases leadership.
	KindDropStorm = "drop_storm"
	// KindChurn runs Count staggered crash/restart cycles, one every
	// Period, rotating round-robin over organizations; each victim is
	// down for half its cycle.
	KindChurn = "churn"
	// KindSeqFailover flips the current leader's sequencer into garbage
	// mode for the window (equivocation); detection triggers a view
	// change and the successor's sequencer takes over. The window end
	// clears the flag everywhere.
	KindSeqFailover = "seq_failover"
	// KindLeader is the Table 4 S2 malicious leader: permanent from At
	// (At == 0 applies before the first event, preserving the legacy
	// attack spec's semantics). Duration > 0 bounds it.
	KindLeader = "leader"
	// KindBroadcaster arms the §6.2 malicious broadcaster at At.
	KindBroadcaster = "broadcaster"
	// KindSmart is a broadcaster targeting only the startup leader's
	// views (Fig 7).
	KindSmart = "smart"
)

// Fault is one scheduled fault event: an entry of a scenario's `faults`
// array and what the injector schedules. Field meaning varies by Kind;
// unused fields are ignored.
type Fault struct {
	// Kind is one of the Kind* names above.
	Kind string `json:"kind"`
	// At is the virtual time the fault starts.
	At types.Duration `json:"at,omitempty"`
	// Duration bounds the fault window (crash, leader: 0 = permanent;
	// partition, dc_outage, drop_storm, seq_failover require > 0).
	Duration types.Duration `json:"duration,omitempty"`

	// Org/Node target crash and partition faults; DC targets dc_outage.
	Org  int `json:"org,omitempty"`
	Node int `json:"node,omitempty"`
	DC   int `json:"dc,omitempty"`

	// Shard targets the fault at one channel of a sharded deployment
	// (scenario.Shards > 1); org/node/dc indices are then relative to that
	// shard's cluster. Must be 0 when the scenario is unsharded.
	Shard int `json:"shard,omitempty"`

	// Count cycles of one crash/restart every Period (churn).
	Count  int            `json:"count,omitempty"`
	Period types.Duration `json:"period,omitempty"`

	// Rate is the drop-storm per-message drop probability.
	Rate float64 `json:"rate,omitempty"`
}

// End returns the exclusive end of the fault's active window. Permanent
// faults (and broadcasters, which never stop on their own) extend to the
// horizon sentinel 1<<62. Recovery invariants measure from the latest End
// across a schedule.
func (f Fault) End() time.Duration {
	switch f.Kind {
	case KindChurn:
		return (f.At + types.Duration(f.Count)*f.Period).D()
	case KindCrash, KindLeader:
		if f.Duration == 0 {
			return 1 << 62
		}
	case KindBroadcaster, KindSmart:
		return 1 << 62
	}
	return (f.At + f.Duration).D()
}

// KindInfo describes one fault kind for CLI listings.
type KindInfo struct {
	Name    string
	Summary string
}

// Kinds returns the fault taxonomy in a stable order (what `bidl run
// -list-faults` prints).
func Kinds() []KindInfo {
	return []KindInfo{
		{KindCrash, "take one node down at `at`; restart after `duration` (0 = permanent) and catch up from committed state"},
		{KindPartition, "isolate organization `org` from the rest of the cluster for `duration`, then heal"},
		{KindDCOutage, "crash every endpoint in datacenter `dc` for `duration` (correlated failure), then restart them"},
		{KindDropStorm, "drop each message from the current leader's consensus endpoint with probability `rate` for `duration`, forcing repeated view changes"},
		{KindChurn, "`count` staggered crash/restart cycles, one per `period`, rotating over organizations; each victim down for period/2"},
		{KindSeqFailover, "current leader's sequencer equivocates (garbage) for `duration`; detection fails over to the successor's sequencer"},
		{KindLeader, "Table 4 S2 malicious leader from `at` (0 = before the first event); `duration` > 0 bounds it"},
		{KindBroadcaster, "§6.2 malicious broadcaster racing the sequencer multicast from `at` (BIDL only)"},
		{KindSmart, "broadcaster attacking only the startup leader's views, Fig 7 (BIDL only)"},
	}
}

func knownKind(kind string) bool {
	for _, k := range Kinds() {
		if k.Name == kind {
			return true
		}
	}
	return false
}

// windowed reports whether the kind needs an explicit positive Duration.
func windowed(kind string) bool {
	switch kind {
	case KindPartition, KindDCOutage, KindDropStorm, KindSeqFailover:
		return true
	}
	return false
}

// overlapKey distinguishes targets whose windows may legally overlap:
// crashing org 0 and org 1 at once is a valid schedule, crashing the same
// node twice at once is not. Kinds with global state (partition drop rule,
// storm state, leader-evil toggles, the broadcaster endpoint) collapse to
// one key so any overlap is rejected.
func (f Fault) overlapKey() string {
	switch f.Kind {
	case KindCrash:
		return fmt.Sprintf("crash/%d/%d", f.Org, f.Node)
	case KindDCOutage:
		return fmt.Sprintf("dc_outage/%d", f.DC)
	}
	return f.Kind
}

// ValidateSchedule rejects malformed fault schedules: unknown kinds,
// negative times, out-of-range rates, shapeless churn, and overlapping
// active windows against the same target (two storms or two partitions at
// once would fight over the same drop rule; sequence them instead).
func ValidateSchedule(faults []Fault) error {
	for i, f := range faults {
		if !knownKind(f.Kind) {
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.At < 0 || f.Duration < 0 || f.Period < 0 {
			return fmt.Errorf("chaos: fault %d (%s): times must be >= 0", i, f.Kind)
		}
		if f.Org < 0 || f.Node < 0 || f.DC < 0 || f.Count < 0 {
			return fmt.Errorf("chaos: fault %d (%s): targets and counts must be >= 0", i, f.Kind)
		}
		if f.Rate < 0 || f.Rate > 1 {
			return fmt.Errorf("chaos: fault %d (%s): rate must be in [0,1] (got %g)", i, f.Kind, f.Rate)
		}
		if windowed(f.Kind) && f.Duration == 0 {
			return fmt.Errorf("chaos: fault %d (%s): duration must be > 0", i, f.Kind)
		}
		if f.Kind == KindDropStorm && f.Rate == 0 {
			return fmt.Errorf("chaos: fault %d (drop_storm): rate must be > 0", i)
		}
		if f.Kind == KindChurn && (f.Count == 0 || f.Period == 0) {
			return fmt.Errorf("chaos: fault %d (churn): count and period must be > 0", i)
		}
		for j := 0; j < i; j++ {
			g := faults[j]
			if g.overlapKey() != f.overlapKey() {
				continue
			}
			if f.At.D() < g.End() && g.At.D() < f.End() {
				return fmt.Errorf("chaos: faults %d and %d (%s): active windows overlap", j, i, f.Kind)
			}
		}
	}
	return nil
}
