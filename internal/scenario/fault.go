package scenario

import (
	"fmt"

	"github.com/bidl-framework/bidl/internal/chaos"
)

// FaultSpec is one declarative fault-injection entry — the JSON surface of
// chaos.Fault (see chaos.Kinds for the taxonomy, or `bidl run
// -list-faults`). Field meaning varies by kind; unused fields are ignored.
type FaultSpec struct {
	// Kind is one of crash, partition, dc_outage, drop_storm, churn,
	// seq_failover, leader, broadcaster, smart.
	Kind string `json:"kind"`
	// At is the virtual time the fault starts.
	At Duration `json:"at,omitempty"`
	// Duration bounds the fault window (crash: 0 = permanent; partition,
	// dc_outage, drop_storm, seq_failover require > 0).
	Duration Duration `json:"duration,omitempty"`

	// Org/Node target crash and partition faults; DC targets dc_outage.
	Org  int `json:"org,omitempty"`
	Node int `json:"node,omitempty"`
	DC   int `json:"dc,omitempty"`

	// Shard targets the fault at one channel of a sharded deployment
	// (scenario.Shards > 1); org/node/dc indices are then relative to that
	// shard's cluster. Must be 0 when the scenario is unsharded.
	Shard int `json:"shard,omitempty"`

	// Count cycles of one crash/restart every Period (churn).
	Count  int      `json:"count,omitempty"`
	Period Duration `json:"period,omitempty"`

	// Rate is the drop-storm per-message drop probability.
	Rate float64 `json:"rate,omitempty"`

	// Broadcaster knobs (kinds broadcaster/smart); zero values take
	// attack.DefaultBroadcasterConfig.
	Window           int      `json:"window,omitempty"`
	Interval         Duration `json:"interval,omitempty"`
	DetectLag        Duration `json:"detect_lag,omitempty"`
	MaliciousClients []int    `json:"malicious_clients"`
}

// fault compiles the spec entry to the engine form.
func (f FaultSpec) fault() chaos.Fault {
	return chaos.Fault{
		Kind:             f.Kind,
		At:               f.At.D(),
		Duration:         f.Duration.D(),
		Org:              f.Org,
		Node:             f.Node,
		DC:               f.DC,
		Count:            f.Count,
		Period:           f.Period.D(),
		Rate:             f.Rate,
		Window:           f.Window,
		Interval:         f.Interval.D(),
		DetectLag:        f.DetectLag.D(),
		MaliciousClients: f.MaliciousClients,
	}
}

// attackFault lowers the legacy attack spec onto the fault schedule: a
// leader attack is a permanent time-zero leader fault, the broadcaster
// kinds map field-for-field. The zero AttackSpec compiles to a zero Fault
// (Kind ""), which compiledFaults skips.
func (a AttackSpec) attackFault() chaos.Fault {
	switch a.Kind {
	case AttackLeader:
		return chaos.Fault{Kind: chaos.KindLeader}
	case AttackBroadcaster, AttackSmart:
		return chaos.Fault{
			Kind:             a.Kind,
			At:               a.Start.D(),
			Window:           a.Window,
			Interval:         a.Interval.D(),
			DetectLag:        a.DetectLag.D(),
			MaliciousClients: a.MaliciousClients,
		}
	}
	return chaos.Fault{}
}

// FaultSchedule returns the run's compiled fault schedule — the faults
// array plus the legacy attack spec lowered onto it — in engine form.
// Invariant harnesses use it to locate fault-window ends (chaos.ScheduleEnd).
func (s Scenario) FaultSchedule() []chaos.Fault { return s.compiledFaults() }

// compiledFaults is the run's full fault schedule: the faults array plus
// the legacy attack spec lowered onto it.
func (s Scenario) compiledFaults() []chaos.Fault {
	out := make([]chaos.Fault, 0, len(s.Faults)+1)
	for _, f := range s.Faults {
		out = append(out, f.fault())
	}
	if a := s.Attack.attackFault(); a.Kind != "" {
		out = append(out, a)
	}
	return out
}

// faultsForShard compiles the engine-form schedule targeting shard i: the
// spec entries whose shard field matches, plus — on shard 0 — the legacy
// attack spec.
func (s Scenario) faultsForShard(i int) []chaos.Fault {
	var out []chaos.Fault
	for _, f := range s.Faults {
		if f.Shard == i {
			out = append(out, f.fault())
		}
	}
	if i == 0 {
		if a := s.Attack.attackFault(); a.Kind != "" {
			out = append(out, a)
		}
	}
	return out
}

// validateFaults rejects schedules the chaos engine or the compiled
// cluster cannot honor: malformed schedules (unknown kinds, negative
// times, overlapping windows — chaos.ValidateSchedule), out-of-range
// targets, and sequencer-racing adversaries on frameworks without a
// sequencer multicast.
func (s Scenario) validateFaults(orgs, perOrg, dcs int, isBIDL bool) error {
	faults := s.compiledFaults()
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
			if f.Org >= orgs {
				return fmt.Errorf("scenario: fault %d (%s): org %d out of range (cluster has %d orgs)", i, f.Kind, f.Org, orgs)
			}
			if f.Kind == chaos.KindCrash && f.Node >= perOrg {
				return fmt.Errorf("scenario: fault %d (crash): node %d out of range (orgs have %d nodes)", i, f.Node, perOrg)
			}
		case chaos.KindDCOutage:
			if f.DC >= dcs {
				return fmt.Errorf("scenario: fault %d (dc_outage): dc %d out of range (cluster has %d datacenters)", i, f.DC, dcs)
			}
		case chaos.KindBroadcaster, chaos.KindSmart:
			if !isBIDL {
				return fmt.Errorf("scenario: fault %d (%s): requires the bidl framework (the broadcaster races the sequencer multicast)", i, f.Kind)
			}
		}
	}
	return nil
}
