package scenario

import (
	"github.com/bidl-framework/bidl/internal/attack"
	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/workload"
)

// All three harnesses satisfy the framework-agnostic surface.
var (
	_ Harness = (*core.Cluster)(nil)
	_ Harness = (*fabric.Cluster)(nil)
	_ Harness = (*ShardedHarness)(nil)
)

// built is what a compile target hands back to RunWith: a ready harness, the
// organization count the workload generator must span, and a closure that
// arms the spec's fault schedule (called after membership is complete —
// arming earlier would shift endpoint IDs — and before load is scheduled).
type built struct {
	harness   Harness
	orgs      int
	armFaults func(gen *workload.Generator)
}

// compile builds the harness of the spec's framework family from a
// validated, defaults-resolved spec. Sharding is a BIDL deployment shape, not
// a framework: `shards: 1` (or absent) compiles to the ordinary
// single-channel cluster, which is what keeps unsharded goldens
// byte-identical.
func (s Scenario) compile(rc RunConfig) built {
	switch {
	case s.Framework != FrameworkBIDL:
		return buildFabric(s, rc)
	case s.Shards > 1:
		return buildSharded(s, rc)
	default:
		return buildBIDL(s, rc)
	}
}

// buildBIDL compiles the single-channel BIDL cluster.
func buildBIDL(s Scenario, rc RunConfig) built {
	cfg := s.bidlConfig()
	cfg.Tracer = rc.Tracer
	bc := core.NewCluster(cfg)
	bc.ForceSerial(rc.ForceSerialSim)
	return built{
		harness: bc,
		orgs:    cfg.NumOrgs,
		armFaults: func(gen *workload.Generator) {
			installFaults(s.compiledFaults(), bidlChaosEnv(bc, gen), s.EffectiveSeed())
		},
	}
}

// buildFabric compiles one of the baseline clusters (HLF / FastFabric /
// StreamChain).
func buildFabric(s Scenario, rc RunConfig) built {
	cfg := s.fabricConfig()
	cfg.Tracer = rc.Tracer
	fc := fabric.NewCluster(cfg)
	fc.ForceSerial(rc.ForceSerialSim)
	return built{
		harness: fc,
		orgs:    cfg.NumOrgs,
		armFaults: func(gen *workload.Generator) {
			installFaults(s.compiledFaults(), fabricChaosEnv(fc), s.EffectiveSeed())
		},
	}
}

// buildSharded compiles the multi-channel deployment: s.Shards copies of the
// compiled BIDL config on one shared simulation. Faults arm per shard — each
// shard's schedule gets its own injector bound to that shard's cluster, with
// the legacy attack spec applying to shard 0.
func buildSharded(s Scenario, rc RunConfig) built {
	cfg := s.bidlConfig()
	cfg.Tracer = rc.Tracer
	h := NewShardedHarness(ShardedConfig{Shards: s.Shards, Shard: cfg, SimWorkers: cfg.SimWorkers})
	h.ForceSerial(rc.ForceSerialSim)
	return built{
		harness: h,
		orgs:    cfg.NumOrgs,
		armFaults: func(gen *workload.Generator) {
			for i := 0; i < h.NumShards(); i++ {
				// Offset the injector seed per shard so concurrent same-kind
				// faults draw decorrelated randomness.
				installFaults(s.faultsForShard(i), bidlChaosEnv(h.Shard(i), gen),
					s.EffectiveSeed()+int64(i)*1_000_000_007)
			}
		},
	}
}

// installFaults arms a non-empty compiled schedule.
func installFaults(faults []chaos.Fault, env chaos.Env, seed int64) {
	if len(faults) == 0 {
		return
	}
	chaos.NewInjector(env, faults, seed).Install()
}

// bidlChaosEnv assembles the injector's cluster surface for a BIDL cluster
// (standalone or one shard): the substrate's endpoint rosters plus closures
// binding the malicious-leader toggle and broadcaster attachment to the
// attack package.
func bidlChaosEnv(bc *core.Cluster, gen *workload.Generator) chaos.Env {
	seqs := make([]*simnet.Endpoint, len(bc.Sequencers))
	for i, sq := range bc.Sequencers {
		seqs[i] = sq.Endpoint()
	}
	return chaos.Env{
		Sim:         bc.Sim,
		Net:         bc.Net,
		Consensus:   bc.Cons.Members,
		Sequencers:  seqs,
		Orgs:        bc.OrgEps,
		LeaderIndex: bc.LeaderIndex,
		SetLeaderEvil: func(on bool) {
			if on {
				attack.EnableMaliciousLeader(bc, bc.LeaderIndex())
				return
			}
			for _, sq := range bc.Sequencers {
				sq.Garbage = false
			}
		},
		StartBroadcaster: func(f chaos.Fault) {
			cfg := attack.DefaultBroadcasterConfig()
			if len(f.MaliciousClients) > 0 {
				cfg.MaliciousClients = f.MaliciousClients
			}
			if f.Window > 0 {
				cfg.Window = f.Window
			}
			if f.Interval != 0 {
				cfg.Interval = f.Interval
			}
			if f.DetectLag != 0 {
				cfg.DetectLag = f.DetectLag
			}
			if f.Kind == chaos.KindSmart {
				cfg.TargetLeader = bc.LeaderIndex()
			}
			attack.NewBroadcaster(bc, gen, cfg).Start(f.At)
		},
	}
}

// fabricChaosEnv assembles the injector's cluster surface for a baseline:
// orderers play the consensus role, peers the org role, and there is no
// sequencer multicast to race (broadcaster kinds are validated out).
func fabricChaosEnv(fc *fabric.Cluster) chaos.Env {
	return chaos.Env{
		Sim:         fc.Sim,
		Net:         fc.Net,
		Consensus:   fc.Cons.Members,
		Orgs:        fc.OrgEps,
		LeaderIndex: fc.LeaderIndex,
		SetLeaderEvil: func(on bool) {
			if on {
				fc.Orderers[fc.LeaderIndex()].ProposeGarbage = true
				return
			}
			for _, o := range fc.Orderers {
				o.ProposeGarbage = false
			}
		},
	}
}
