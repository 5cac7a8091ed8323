package main

// metricDef is one row of BENCHMARK.json: TestSpecMatchesBenchmarkJSON pins
// that file to these tables, so the names the runner emits and the names the
// driver expects cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics a user of the simulator (host_*, setup_s,
// alloc*, live_heap_mb) or of the simulated system (sim_*, committed_share)
// sees. Bounds are shares of the parent's median, each about three times the
// widest seed-to-seed spread any workload showed on the first baseline
// (README.md, "Bounds"); same-seed runs of one commit agree exactly on every
// simulated metric whatever the bound.
var endToEnd = []metricDef{
	{"host_us_per_txn", "us", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_txn", "count", lower, 0.05},
	{"alloc_kb_per_txn", "KB", lower, 0.08},
	{"live_heap_mb", "MB", lower, 0.08},
	{"sim_tput_tps", "tx/s", higher, 0.15},
	{"sim_mean_ms", "ms", lower, 0.25},
	{"sim_p50_ms", "ms", lower, 0.12},
	{"sim_p99_ms", "ms", lower, 0.20},
	{"sim_valid_share", "ratio", higher, 0.03},
	{"committed_share", "ratio", higher, 0.001},
}

// consensusProtocols are the ladder's consensus rungs, in emission order.
var consensusProtocols = []string{"pbft", "hotstuff", "sbft", "zyzzyva", "raft"}

// cpuLayers are the buckets of the traced run's CPU attribution. Every
// profile sample lands in exactly one, so they sum to 100.
var cpuLayers = []string{
	"core", "crypto", "ledger", "contract", "types", "simnet", "consensus",
	"fabric", "scenario", "workload", "metrics", "trace", "chaos", "go_runtime",
}

// perLayer lists the per-layer metrics in three groups: the ladder
// (microbenchmarks of each layer's public functions), the traced run's host
// side (spans and CPU shares taken by the benchmark), and its simulated side
// (counts at layer boundaries, all deterministic).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: lower} }
	h := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: higher} }
	defs := []metricDef{
		// Ladder.
		l("crypto.hmac_sign_ns", "ns"), l("crypto.hmac_verify_ns", "ns"),
		l("crypto.hash_1kb_ns", "ns"), l("crypto.hmac_sign_allocs", "count"),
		l("types.tx_marshal_ns", "ns"), l("types.tx_unmarshal_ns", "ns"),
		l("types.tx_id_ns", "ns"), l("types.ordering_encode_500_ns", "ns"),
		l("workload.next_uniform_ns", "ns"), l("workload.next_zipf_ns", "ns"),
		l("workload.next_allocs", "count"),
		l("ledger.state_get_ns", "ns"), l("ledger.state_put_ns", "ns"),
		l("ledger.overlay_commit_ns", "ns"), l("ledger.validate_mvcc_ns", "ns"),
		l("ledger.state_equal_10k_us", "us"), l("ledger.state_digest_10k_us", "us"),
		l("contract.smallbank_execute_ns", "ns"), l("contract.execute_transient_ns", "ns"),
		l("contract.settlement_execute_ns", "ns"), l("contract.execute_allocs", "count"),
		l("simnet.event_ns", "ns"), l("simnet.deliver_ns", "ns"),
		l("simnet.multicast_50_ns", "ns"), l("simnet.deliver_allocs", "count"),
	}
	for _, p := range consensusProtocols {
		defs = append(defs, l("consensus."+p+".decide_n4_us", "us"), l("consensus."+p+".decide_n31_us", "us"))
	}
	defs = append(defs,
		l("core.pipeline_txn_us", "us"), l("core.pipeline_txn_allocs", "count"),
		l("metrics.record_commit_ns", "ns"), l("metrics.p99_query_20k_us", "us"),
		l("trace.tx_stage_ns", "ns"), l("trace.anatomy_compute_ms", "ms"),
		l("trace.jsonl_write_ms", "ms"),

		// Traced run, host side.
		l("scenario.sim_s", "s"), l("scenario.audit_s", "s"),
		l("trace.overhead_pct", "%"), l("host.peak_rss_mb", "MB"),
	)
	for _, layer := range cpuLayers {
		defs = append(defs, l(layer+".cpu_pct", "%"))
	}
	return append(defs,
		// Traced run, simulated side.
		l("simnet.events_per_txn", "count"), l("simnet.msgs_per_txn", "count"),
		l("simnet.bytes_per_txn", "B"), l("simnet.dropped_msgs", "count"),
		l("simnet.max_queue_depth", "count"), l("simnet.busiest_node_util_pct", "%"),
		l("core.seq_wait_ms", "ms"), l("core.deliver_wait_ms", "ms"),
		l("core.exec_wait_ms", "ms"), l("core.persist_wait_ms", "ms"),
		l("consensus.agree_wait_ms", "ms"), l("core.notify_wait_ms", "ms"),
		l("scenario.xprepared_wait_ms", "ms"), l("scenario.xresolved_wait_ms", "ms"),
		h("scenario.xshard_committed", "count"), l("scenario.xshard_aborted", "count"),
		h("core.txns_per_block", "count"), h("core.spec_overlap_pct", "%"),
		h("core.spec_success_pct", "%"), l("core.conflicts", "count"),
		l("ledger.mvcc_aborts_per_ktxn", "count"), l("contract.nondet_aborts_per_ktxn", "count"),
		l("consensus.view_changes", "count"), l("core.reexecuted_per_ktxn", "count"),
		l("core.denied_clients", "count"), l("core.retransmit_reqs", "count"),
		l("core.rejected_txns", "count"),
		// What the end-to-end list could not hold: the abort rate and the
		// share of submissions lost read 0 on clean runs, which an
		// end-to-end metric may not, and the longest stall swings with the
		// phase alignment of the channels on `sharded`.
		l("scenario.stall_ms", "ms"), l("scenario.abort_rate", "ratio"), l("scenario.failed_share", "ratio"),
	)
}
