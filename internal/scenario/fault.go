package scenario

import (
	"fmt"

	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/substrate"
)

// FaultSpec is one declarative fault-injection entry. It is the chaos
// engine's own fault type, which carries the JSON tags: a spec's `faults`
// array is what the injector schedules, with no copy in between (see
// chaos.Kinds for the taxonomy, or `bidl run -list-faults`).
type FaultSpec = chaos.Fault

// attackFault lowers the legacy attack spec onto the fault schedule: a
// leader attack is a permanent time-zero leader fault, the broadcaster
// kinds map field-for-field. The zero AttackSpec compiles to a zero Fault
// (Kind ""), which FaultSchedule skips.
func (a AttackSpec) attackFault() chaos.Fault {
	switch a.Kind {
	case AttackLeader:
		return chaos.Fault{Kind: chaos.KindLeader}
	case AttackBroadcaster, AttackSmart:
		return chaos.Fault{
			Kind:             a.Kind,
			At:               a.Start,
			Window:           a.Window,
			Interval:         a.Interval,
			DetectLag:        a.DetectLag,
			MaliciousClients: a.MaliciousClients,
		}
	}
	return chaos.Fault{}
}

// FaultSchedule returns the run's full fault schedule: the faults array plus
// the legacy attack spec lowered onto it (as a shard-0 entry). Invariant
// harnesses use it to locate fault-window ends (chaos.ScheduleEnd).
func (s Scenario) FaultSchedule() []chaos.Fault {
	out := append([]chaos.Fault(nil), s.Faults...)
	if a := s.Attack.attackFault(); a.Kind != "" {
		out = append(out, a)
	}
	return out
}

// faultsForShard returns the part of the schedule targeting shard i; an
// unsharded run is shard 0 and gets all of it.
func (s Scenario) faultsForShard(i int) []chaos.Fault {
	var out []chaos.Fault
	for _, f := range s.FaultSchedule() {
		if f.Shard == i {
			out = append(out, f)
		}
	}
	return out
}

// validateFaults rejects schedules the chaos engine or the compiled
// cluster cannot honor: malformed schedules (unknown kinds, negative
// times, overlapping windows — chaos.ValidateSchedule), out-of-range
// targets, and sequencer-racing adversaries on frameworks without a
// sequencer multicast.
func (s Scenario) validateFaults(cfg substrate.Config, isBIDL bool) error {
	faults := s.FaultSchedule()
	if len(faults) == 0 {
		return nil
	}
	if s.Shards > 1 {
		// Shards fault independently: the overlap discipline applies per
		// shard schedule, so e.g. two concurrent crashes of org 0 on
		// different shards are legal.
		for i := 0; i < s.Shards; i++ {
			if err := chaos.ValidateSchedule(s.faultsForShard(i)); err != nil {
				return fmt.Errorf("scenario: shard %d: %w", i, err)
			}
		}
	} else if err := chaos.ValidateSchedule(faults); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	maxShard := s.Shards
	if maxShard < 1 {
		maxShard = 1
	}
	for i, f := range s.Faults {
		if f.Shard < 0 || f.Shard >= maxShard {
			return fmt.Errorf("scenario: fault %d (%s): shard %d out of range (scenario has %d shard(s))",
				i, f.Kind, f.Shard, maxShard)
		}
	}
	for i, f := range faults {
		switch f.Kind {
		case chaos.KindCrash, chaos.KindPartition:
			if f.Org >= cfg.NumOrgs {
				return fmt.Errorf("scenario: fault %d (%s): org %d out of range (cluster has %d orgs)", i, f.Kind, f.Org, cfg.NumOrgs)
			}
			if f.Kind == chaos.KindCrash && f.Node >= cfg.PerOrg {
				return fmt.Errorf("scenario: fault %d (crash): node %d out of range (orgs have %d nodes)", i, f.Node, cfg.PerOrg)
			}
		case chaos.KindDCOutage:
			if f.DC >= cfg.NumDCs {
				return fmt.Errorf("scenario: fault %d (dc_outage): dc %d out of range (cluster has %d datacenters)", i, f.DC, cfg.NumDCs)
			}
		case chaos.KindBroadcaster, chaos.KindSmart:
			if !isBIDL {
				return fmt.Errorf("scenario: fault %d (%s): requires the bidl framework (the broadcaster races the sequencer multicast)", i, f.Kind)
			}
		}
	}
	return nil
}
