package bench

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
)

// --- Sharding: multi-channel scale-out (extension) ---------------------------

// The sharding experiment measures the multi-channel deployment
// (scenario.ShardedHarness, DESIGN.md §14): shard count × cross-shard ratio
// on BIDL, against the unsharded single-channel engine and both Fabric
// baselines at the same per-shard cluster size. Offered load scales with the
// shard count — each shard is a full copy of the cluster — so the no-cross
// rows show near-linear scale-out while rising cross-shard ratios surface
// the 2PC coordination cost (two sequencing rounds plus lock conflicts).

// shardOrgs keeps per-shard clusters small enough that a 4-shard sweep point
// stays cheap; every row (sharded or not) uses the same per-cluster size so
// rows compare like for like.
const shardOrgs = 12

// shardBaseRate is the per-shard offered load (txns/s) for the BIDL rows at
// this reduced cluster size; the baselines run at their calibrated fraction.
const (
	shardBaseRate = 16000
	shardRateFF   = 12000
	shardRateHLF  = 6000
)

func init() {
	register(Experiment{
		ID:    "sharding",
		Paper: "Sharded multi-channel scale-out (extension)",
		Description: "BIDL sharded over 1/2/4 channels with cross-shard 2PC ratios " +
			"of 0/5%/20%, vs the unsharded engine and the FastFabric/HLF " +
			"baselines at the same per-cluster size.",
		Title: "Multi-channel sharding: scale-out vs cross-shard 2PC cost",
		Columns: []string{"framework", "shards", "cross", "offered_ktps",
			"ktps", "avg_ms", "p99_ms", "abort"},
		Notes: []string{
			"each shard is a full copy of the cluster, so offered load scales with the shard count; cross=0% rows isolate pure horizontal scale-out",
			"cross-shard transfers pay two sequencing rounds (prepare, then commit/abort) plus first-wins lock conflicts — visible as added latency and aborts at 20%",
		},
		Sweep: func(o Options) []Group {
			window := o.scaled(1 * time.Second)
			// rate is the total offered load before Options scaling.
			point := func(framework string, shards int, ratio, rate float64) Group {
				name := fmt.Sprintf("%s shards=%d cross=%g", framework, shards, ratio)
				sp := spec(framework, name, o, mix(0, 0), rate, window)
				sp.Nodes = scenario.NodesSpec{Orgs: shardOrgs}
				if shards > 1 {
					sp.Shards = shards
					sp.CrossShardRatio = ratio
				}
				return single(sp, func(t *Table, r Result) {
					t.AddRow(framework, fmt.Sprint(shards), pct(ratio), ktps(o.rate(rate)),
						ktps(r.Throughput), ms(r.AvgLatency), ms(r.P99), pct(r.AbortRate))
				})
			}
			groups := []Group{point(scenario.FrameworkBIDL, 1, 0, shardBaseRate)}
			for _, n := range []int{2, 4} {
				for _, ratio := range []float64{0, 0.05, 0.2} {
					groups = append(groups, point(scenario.FrameworkBIDL, n, ratio, float64(n)*shardBaseRate))
				}
			}
			return append(groups,
				point(scenario.FrameworkFastFabric, 1, 0, shardRateFF),
				point(scenario.FrameworkHLF, 1, 0, shardRateHLF))
		},
	})
}
