package bench

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
)

// The anatomy experiment turns the latency-anatomy subsystem
// (internal/trace/anatomy) into a registered, golden-gated table: the same
// deployment swept across BIDL under three BFT protocols and the two main
// Fabric baselines, each row decomposing client-perceived latency into the
// waits the paper's breakdown analysis names — sequencing, delivery,
// execution, consensus, persist, notification — plus the speculative
//-execution overlap ratio (§4.4's claim as one number per configuration).

func init() {
	register(Experiment{
		ID:    "anatomy",
		Paper: "latency breakdown",
		Description: "Critical-path decomposition of submit→notified latency per " +
			"framework/protocol (BIDL × {bft-smart, hotstuff, sbft}, HLF, FastFabric): " +
			"per-stage p50 waits, end-to-end percentiles, and the execution-under-" +
			"consensus overlap ratio.",
		Title: "Latency anatomy: per-stage p50 waits and execution/consensus overlap",
		Columns: []string{"config", "txs", "p50_ms", "p99_ms", "seq_ms", "deliver_ms",
			"exec_ms", "persist_ms", "agree_ms", "notify_ms", "overlap"},
		Notes: []string{
			"stage columns are p50 critical-path waits (frontier decomposition); they need not sum to p50 e2e",
			"overlap = fraction of execution time hidden inside [sequenced, agreed] — the speculative-execution claim",
		},
		Traced: true,
		Sweep: func(o Options) []Group {
			window := o.scaled(1200 * time.Millisecond)
			config := func(label, framework, protocol string, rate float64) Group {
				sp := spec(framework, "anatomy "+label, o, mix(0, 0), rate, window)
				sp.Protocol = protocol
				return single(sp, func(t *Table, r Result) {
					rep := r.Anatomy
					t.AddRow(label,
						fmt.Sprintf("%d", rep.Complete),
						ms(rep.E2E.P50), ms(rep.E2E.P99),
						ms(rep.StageWait(trace.StageSequenced).P50),
						ms(rep.StageWait(trace.StageDelivered).P50),
						ms(rep.StageWait(trace.StageExecStart).P50+rep.StageWait(trace.StageExecuted).P50),
						ms(rep.StageWait(trace.StagePersisted).P50),
						ms(rep.StageWait(trace.StageAgreed).P50),
						ms(rep.StageWait(trace.StageNotified).P50),
						pct(rep.Overlap.Ratio))
				})
			}
			return []Group{
				config("bidl/bft-smart", scenario.FrameworkBIDL, "bft-smart", satBIDL),
				config("bidl/hotstuff", scenario.FrameworkBIDL, "hotstuff", satBIDL),
				config("bidl/sbft", scenario.FrameworkBIDL, "sbft", satBIDL),
				config("hlf", scenario.FrameworkHLF, "", satHLF),
				config("fastfabric", scenario.FrameworkFastFabric, "", satFF),
			}
		},
	})
}
