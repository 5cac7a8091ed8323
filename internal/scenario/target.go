package scenario

import (
	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/workload"
)

// All three harnesses satisfy the framework-agnostic surface.
var (
	_ Harness = (*core.Cluster)(nil)
	_ Harness = (*fabric.Cluster)(nil)
	_ Harness = (*ShardedHarness)(nil)
)

// target is one deployment a fault schedule arms: its place on the substrate
// and the cluster on it.
type target struct {
	d   *substrate.Deployment
	env chaos.Env
}

// built is what a compile target hands back to RunWith: a ready harness, the
// organization count the workload generator must span, and the deployments
// the spec's fault schedule arms, indexed by shard (one for an unsharded run).
type built struct {
	harness Harness
	orgs    int
	targets []target
}

// compile builds the harness of the spec's framework family from a
// validated, defaults-resolved spec. Sharding is a BIDL deployment shape, not
// a framework: `shards: 1` (or absent) compiles to the ordinary
// single-channel cluster, which is what keeps unsharded goldens
// byte-identical.
func (s Scenario) compile(rc RunConfig) built {
	switch {
	case s.Framework != FrameworkBIDL:
		cfg := s.fabricConfig()
		cfg.Tracer = rc.Tracer
		fc := fabric.NewCluster(cfg)
		fc.ForceSerial(rc.ForceSerialSim)
		return built{fc, cfg.NumOrgs, []target{{fc.Deployment, fc}}}
	case s.Shards > 1:
		// s.Shards copies of the compiled BIDL config on one shared
		// simulation; each shard's cluster takes its own part of the schedule.
		cfg := s.bidlConfig()
		cfg.Tracer = rc.Tracer
		h := NewShardedHarness(s.Shards, cfg)
		h.ForceSerial(rc.ForceSerialSim)
		b := built{harness: h, orgs: cfg.NumOrgs}
		for _, bc := range h.shards {
			b.targets = append(b.targets, target{bc.Deployment, bc})
		}
		return b
	default:
		cfg := s.bidlConfig()
		cfg.Tracer = rc.Tracer
		bc := core.NewCluster(cfg)
		bc.ForceSerial(rc.ForceSerialSim)
		return built{bc, cfg.NumOrgs, []target{{bc.Deployment, bc}}}
	}
}

// armFaults installs each target's part of the schedule. It runs after the
// membership is complete (the broadcaster registers its own endpoint; doing
// so earlier would shift endpoint IDs and change the run) and before any load
// is scheduled. The injector seed is offset per shard so concurrent same-kind
// faults draw decorrelated randomness.
func (s Scenario) armFaults(b built, gen *workload.Generator) {
	for i, t := range b.targets {
		chaos.Install(t.d, t.env, gen, s.faultsForShard(i), s.EffectiveSeed()+int64(i)*1_000_000_007)
	}
}
