package chaos

import (
	"math/rand"
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/workload"
)

// Env is what differs per framework about a deployment under attack;
// core.Cluster and fabric.Cluster implement it. Everything else the injector
// touches (engine, network, endpoint rosters) is the substrate.Deployment
// both embed.
type Env interface {
	// LeaderIndex reports the current consensus leader.
	LeaderIndex() int
	// SetLeaderEvil makes the current leader malicious (on) or clears the
	// malice flag on every node (off).
	SetLeaderEvil(on bool)
}

// injector compiles a validated fault schedule onto a simulation: fault
// events become Sim.At timers, and partition/storm faults install one
// composed DropFilter. Faulted runs always execute on the serial engine
// (the scenario layer pins SimWorkers to zero, and a non-nil DropFilter
// zeroes the PDES lookahead bound anyway), so the injector's mutable state
// needs no locking and the storm's rng draws stay deterministic.
type injector struct {
	*substrate.Deployment
	env Env
	gen *workload.Generator
	rng *rand.Rand

	isolated   map[simnet.NodeID]bool
	stormRate  float64 // drop probability of the active storm; 0 = none
	prevFilter func(from, to simnet.NodeID, msg simnet.Message) bool
}

// Install arms the schedule on deployment d, whose cluster is env: every
// fault is scheduled and, when the schedule needs one, the network's
// DropFilter is hooked (composing with any filter already installed). The
// caller is expected to have run ValidateSchedule and checked targets
// against the cluster's shape. gen supplies the colluding clients'
// transactions to the broadcaster kinds (BIDL only); seed isolates the
// storm's coin flips from the cluster's randomness. Kinds that must preserve
// the legacy attack arming order (leader at time zero, broadcaster endpoint
// registration) apply immediately rather than through a timer, so Install
// runs after the membership is complete and before load is scheduled.
func Install(d *substrate.Deployment, env Env, gen *workload.Generator, faults []Fault, seed int64) {
	if len(faults) == 0 {
		return
	}
	in := &injector{
		Deployment: d,
		env:        env,
		gen:        gen,
		rng:        rand.New(rand.NewSource(seed*1_000_003 + 17)),
		isolated:   make(map[simnet.NodeID]bool),
	}
	needFilter := false
	for _, f := range faults {
		if f.Kind == KindPartition || f.Kind == KindDropStorm {
			needFilter = true
		}
	}
	if needFilter {
		in.prevFilter = d.Net.DropFilter
		d.Net.DropFilter = in.filter
	}
	for _, f := range faults {
		in.schedule(f)
	}
}

func (in *injector) schedule(f Fault) {
	at, end := f.At.D(), (f.At + f.Duration).D()
	switch f.Kind {
	case KindCrash:
		in.crashCycle(in.OrgEps[f.Org][f.Node], at, f.Duration.D())
	case KindDCOutage:
		eps := in.dcEndpoints(f.DC)
		in.At(at, func() {
			for _, ep := range eps {
				ep.SetDown(true)
			}
		})
		in.At(end, func() {
			for _, ep := range eps {
				ep.Restart()
			}
		})
	case KindPartition:
		eps := in.OrgEps[f.Org]
		in.At(at, func() {
			for _, ep := range eps {
				in.isolated[ep.ID()] = true
			}
		})
		in.At(end, func() {
			for _, ep := range eps {
				delete(in.isolated, ep.ID())
			}
		})
	case KindDropStorm:
		in.At(at, func() { in.stormRate = f.Rate })
		in.At(end, func() { in.stormRate = 0 })
	case KindChurn:
		period := f.Period.D()
		for i := 0; i < f.Count; i++ {
			org := i % len(in.OrgEps)
			node := (i / len(in.OrgEps)) % len(in.OrgEps[org])
			in.crashCycle(in.OrgEps[org][node], at+time.Duration(i)*period, period/2)
		}
	case KindSeqFailover:
		in.At(at, func() { in.env.SetLeaderEvil(true) })
		in.At(end, func() { in.env.SetLeaderEvil(false) })
	case KindLeader:
		if at == 0 {
			// Legacy attack semantics: the malicious leader is armed
			// before the first event, not by a time-zero timer.
			in.env.SetLeaderEvil(true)
		} else {
			in.At(at, func() { in.env.SetLeaderEvil(true) })
		}
		if f.Duration > 0 {
			in.At(end, func() { in.env.SetLeaderEvil(false) })
		}
	case KindBroadcaster, KindSmart:
		// Attached immediately: the broadcaster registers its own
		// endpoint, and membership must be complete before any load is
		// scheduled (it arms itself at f.At). Only a BIDL cluster has a
		// sequencer multicast to race; validation admits these kinds on
		// no other framework.
		NewBroadcaster(in.env.(*core.Cluster), in.gen, f)
	}
}

// crashCycle takes one endpoint down at `at` and, when the window is
// bounded, restarts it after `dur`.
func (in *injector) crashCycle(ep *simnet.Endpoint, at, dur time.Duration) {
	in.At(at, func() { ep.SetDown(true) })
	if dur > 0 {
		in.At(at+dur, func() { ep.Restart() })
	}
}

// dcEndpoints collects every roster endpoint in datacenter dc: consensus
// members, what shares their servers, then the organizations.
func (in *injector) dcEndpoints(dc int) []*simnet.Endpoint {
	var out []*simnet.Endpoint
	for _, roster := range append([][]*simnet.Endpoint{in.Cons.Members, in.Colocated}, in.OrgEps...) {
		for _, ep := range roster {
			if ep.DC() == dc {
				out = append(out, ep)
			}
		}
	}
	return out
}

// filter is the composed DropFilter: partition isolation drops messages
// crossing the isolation boundary; an active storm drops the current
// leader's consensus egress with the configured probability, chasing
// leadership as views change.
func (in *injector) filter(from, to simnet.NodeID, msg simnet.Message) bool {
	if in.prevFilter != nil && in.prevFilter(from, to, msg) {
		return true
	}
	if len(in.isolated) > 0 && in.isolated[from] != in.isolated[to] {
		return true
	}
	if in.stormRate > 0 && in.leaderEgress(from) && in.rng.Float64() < in.stormRate {
		return true
	}
	return false
}

// leaderEgress reports whether id is the current leader's consensus
// endpoint. The co-located sequencer is deliberately spared: storming the
// transaction multicast would starve the run of load instead of testing
// the protocol — the goal is lost proposals and block dissemination, which
// force view changes while transactions keep arriving.
func (in *injector) leaderEgress(id simnet.NodeID) bool {
	li := in.env.LeaderIndex()
	return li >= 0 && li < len(in.Cons.Members) && in.Cons.Members[li].ID() == id
}
