// Package anatomy decomposes traced transaction latency into its constituent
// waits — the paper's latency-breakdown analysis (§6.2) as a first-class
// simulator output. It consumes the Tracer's lifecycle and phase event
// streams and produces, deterministically:
//
//   - a critical-path decomposition of submit→notified latency per
//     transaction: the observed stage order is derived from per-stage median
//     timestamps, and each stage's wait is its timestamp minus the running
//     frontier, so per-transaction waits sum exactly to end-to-end latency;
//   - per-stage wait distributions (p50/p95/p99 nearest-rank, consistent
//     with internal/metrics) and each stage's share of total latency;
//   - per-protocol consensus phase-transition timing tables from
//     consensus.Host.ConsensusPhase events;
//   - an overlap report quantifying how much execution time is hidden under
//     consensus — the speculative-execution claim as one "overlap ratio";
//   - optional fault-window annotation comparing transactions that overlap
//     an injected fault against those that do not;
//   - spans between stages averaged over one population (Report.Spans): the
//     paper's per-phase tables (Tables 2 and 3) as differences of stages.
//
// The same Report is produced by the in-process -anatomy path and by
// `bidl report` reading a -trace-jsonl file offline; golden tests pin the
// two byte-identical, which also freezes the JSONL schema.
package anatomy

import (
	"math"
	"sort"
	"time"

	"github.com/bidl-framework/bidl/internal/trace"
)

// openEnd marks a fault window with no scheduled end (chaos sentinel).
const openEnd = time.Duration(1) << 62

// Window is one fault-injection window to annotate in the breakdown.
type Window struct {
	Label      string
	Start, End time.Duration // End >= openEnd renders as open-ended
}

// Options parameterize Compute.
type Options struct {
	Windows []Window
}

// Dist summarizes one sample population with nearest-rank percentiles
// (idx = ceil(p*n)-1, matching metrics.PercentileLatency) and the mean.
type Dist struct {
	Count         int
	P50, P95, P99 time.Duration
	Mean          time.Duration
}

// StageStat is the wait distribution attributed to one pipeline stage plus
// its share of summed end-to-end latency.
type StageStat struct {
	Stage trace.Stage
	Dist
	Total time.Duration // summed wait across transactions
	Share float64       // Total / sum of end-to-end latencies
}

// PhaseStat is one consensus phase transition ("pre-prepare→prepared", …).
type PhaseStat struct {
	Label string
	Dist
}

// OverlapStat quantifies speculative execution hidden under consensus.
type OverlapStat struct {
	ExecTxs          int           // transactions with measured execution
	ExecTotal        time.Duration // summed exec-start→executed time
	Hidden           time.Duration // summed intersection with [sequenced, agreed]
	Ratio            float64       // Hidden / ExecTotal
	BeforeAgreedFrac float64       // fraction of ExecTxs with executed <= agreed
}

// WindowStat compares transactions overlapping one fault window.
type WindowStat struct {
	Label      string
	Start, End time.Duration
	Dist
}

// TxBreakdown is one complete transaction's decomposition. Waits is aligned
// with Report.Order[1:]: Waits[i] is the wait attributed to Order[i+1]
// (zero when the transaction never reached that stage). The waits sum to
// Notified-Submit by construction — the invariant the tests pin.
type TxBreakdown struct {
	Tx       trace.TxID
	Submit   time.Duration
	Notified time.Duration
	Waits    []time.Duration
}

// Report is the full latency anatomy of one traced run.
type Report struct {
	Complete   int // transactions with both submit and notified marks
	Incomplete int // traced transactions dropped from analysis
	Order      []trace.Stage
	E2E        Dist
	TotalE2E   time.Duration
	Stages     []StageStat // in Order[1:] order
	Phases     []PhaseStat // sorted by label
	Overlap    OverlapStat
	Windows    []WindowStat // fault windows, then the outside-all row
	Breakdowns []TxBreakdown

	complete []*txRecord // the complete transactions, for Spans
}

// StageWait returns the stat for one stage (zero Dist if the stage never
// appeared in the trace).
func (r *Report) StageWait(s trace.Stage) StageStat {
	for _, st := range r.Stages {
		if st.Stage == s {
			return st
		}
	}
	return StageStat{Stage: s}
}

// Span is the time from the latest of From's marks (at least one) to To's
// mark on one transaction: a latency phase as a difference of stages.
type Span struct {
	From []trace.Stage
	To   trace.Stage
}

// Spans totals each span over one population: the complete transactions that
// carry every stage any of the spans reads. n is that population's size, so
// sums[i]/n is span i's mean, and spans that chain (a→b plus b→c) add up to
// the span across them (a→c) exactly. A nil report's population is empty.
func (r *Report) Spans(spans ...Span) (n int, sums []time.Duration) {
	sums = make([]time.Duration, len(spans))
	if r == nil {
		return 0, sums
	}
	var need [trace.NumStages]bool
	for _, sp := range spans {
		need[sp.To] = true
		for _, s := range sp.From {
			need[s] = true
		}
	}
next:
	for _, rec := range r.complete {
		for s, needed := range need {
			if needed && !rec.seen[s] {
				continue next
			}
		}
		n++
		for i, sp := range spans {
			from := rec.at[sp.From[0]]
			for _, s := range sp.From[1:] {
				from = max(from, rec.at[s])
			}
			sums[i] += rec.at[sp.To] - from
		}
	}
	return n, sums
}

// percentile is the nearest-rank percentile over an ascending-sorted slice,
// idx = ceil(p*n)-1, matching metrics.PercentileLatency.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// dist summarizes samples (consumed: sorted in place).
func dist(samples []time.Duration) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return Dist{
		Count: len(samples),
		P50:   percentile(samples, 0.50),
		P95:   percentile(samples, 0.95),
		P99:   percentile(samples, 0.99),
		Mean:  sum / time.Duration(len(samples)),
	}
}

// txRecord is one transaction's per-stage timestamps (first mark wins).
type txRecord struct {
	tx   trace.TxID
	at   [trace.NumStages]time.Duration
	seen [trace.NumStages]bool
}

func (t *txRecord) complete() bool {
	return t.seen[trace.StageSubmit] && t.seen[trace.StageNotified]
}

// Compute builds the latency anatomy from raw event streams. Output is fully
// determined by the inputs: identical streams produce identical Reports.
func Compute(txEvents []trace.TxEvent, phaseEvents []trace.PhaseEvent, opts Options) *Report {
	// Group lifecycle marks per transaction, preserving first-seen order.
	byTx := make(map[trace.TxID]*txRecord)
	var order []*txRecord
	for _, e := range txEvents {
		if e.Stage >= trace.NumStages {
			continue
		}
		rec := byTx[e.Tx]
		if rec == nil {
			rec = &txRecord{tx: e.Tx}
			byTx[e.Tx] = rec
			order = append(order, rec)
		}
		if !rec.seen[e.Stage] {
			rec.seen[e.Stage] = true
			rec.at[e.Stage] = e.At
		}
	}

	r := &Report{}
	var complete []*txRecord
	for _, rec := range order {
		if rec.complete() {
			complete = append(complete, rec)
		} else {
			r.Incomplete++
		}
	}
	r.Complete = len(complete)
	r.complete = complete

	// Observed stage order: sort stages present in the trace by their median
	// timestamp (nearest-rank p50 across complete transactions), ties broken
	// by enum order; submit is forced first and notified last so the frontier
	// walk always starts at submit and ends at the terminal client event.
	var stageTimes [trace.NumStages][]time.Duration
	for _, rec := range complete {
		for s := trace.Stage(0); s < trace.NumStages; s++ {
			if rec.seen[s] {
				stageTimes[s] = append(stageTimes[s], rec.at[s])
			}
		}
	}
	type orderKey struct {
		stage  trace.Stage
		median time.Duration
	}
	var present []orderKey
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		if len(stageTimes[s]) == 0 {
			continue
		}
		sorted := append([]time.Duration(nil), stageTimes[s]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		med := percentile(sorted, 0.50)
		switch s {
		case trace.StageSubmit:
			med = -1 << 62
		case trace.StageNotified:
			med = openEnd
		}
		present = append(present, orderKey{stage: s, median: med})
	}
	sort.SliceStable(present, func(i, j int) bool {
		if present[i].median != present[j].median {
			return present[i].median < present[j].median
		}
		return present[i].stage < present[j].stage
	})
	for _, k := range present {
		r.Order = append(r.Order, k.stage)
	}

	// Frontier decomposition per transaction: walking the observed order,
	// each present stage is charged max(0, t_stage - frontier) and advances
	// the frontier to max(frontier, t_stage). Because notified is the last
	// stage in the order and the latest mark of every complete transaction,
	// the waits sum exactly to notified-submit.
	nWaits := 0
	if len(r.Order) > 0 {
		nWaits = len(r.Order) - 1
	}
	waitSamples := make([][]time.Duration, nWaits)
	waitTotals := make([]time.Duration, nWaits)
	var e2e []time.Duration
	for _, rec := range complete {
		bd := TxBreakdown{
			Tx:       rec.tx,
			Submit:   rec.at[trace.StageSubmit],
			Notified: rec.at[trace.StageNotified],
			Waits:    make([]time.Duration, nWaits),
		}
		frontier := bd.Submit
		for i := 1; i < len(r.Order); i++ {
			s := r.Order[i]
			if !rec.seen[s] {
				continue
			}
			t := rec.at[s]
			if t > frontier {
				bd.Waits[i-1] = t - frontier
				frontier = t
			}
			// A present stage contributes a sample even at zero wait, so
			// percentiles reflect how often the frontier is already past it.
			waitSamples[i-1] = append(waitSamples[i-1], bd.Waits[i-1])
			waitTotals[i-1] += bd.Waits[i-1]
		}
		e2e = append(e2e, bd.Notified-bd.Submit)
		r.TotalE2E += bd.Notified - bd.Submit
		r.Breakdowns = append(r.Breakdowns, bd)
	}
	r.E2E = dist(e2e)
	for i := 1; i < len(r.Order); i++ {
		st := StageStat{Stage: r.Order[i], Total: waitTotals[i-1]}
		st.Dist = dist(waitSamples[i-1])
		if r.TotalE2E > 0 {
			st.Share = float64(st.Total) / float64(r.TotalE2E)
		}
		r.Stages = append(r.Stages, st)
	}

	// Consensus phase transitions: group marks by (node, view, seq), pair
	// consecutive marks into "a→b" transitions, aggregate by label.
	r.Phases = phaseTransitions(phaseEvents)

	// Speculative-execution overlap: how much of [exec-start, executed] lies
	// inside the consensus interval [sequenced, agreed].
	r.Overlap = overlap(complete)

	// Fault-window annotation: transactions whose lifetime intersects a
	// window, vs those outside all windows.
	r.Windows = windowStats(complete, opts.Windows)

	return r
}

func phaseTransitions(phaseEvents []trace.PhaseEvent) []PhaseStat {
	type key struct {
		node int32
		view uint64
		seq  uint64
	}
	groups := make(map[key][]trace.PhaseEvent)
	var keys []key
	for _, e := range phaseEvents {
		k := key{e.Node, e.View, e.Seq}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], e)
	}
	samples := make(map[string][]time.Duration)
	var labels []string
	for _, k := range keys {
		es := groups[k]
		sort.SliceStable(es, func(i, j int) bool { return es[i].At < es[j].At })
		for i := 1; i < len(es); i++ {
			label := es[i-1].Name + "→" + es[i].Name
			if _, ok := samples[label]; !ok {
				labels = append(labels, label)
			}
			samples[label] = append(samples[label], es[i].At-es[i-1].At)
		}
	}
	sort.Strings(labels)
	out := make([]PhaseStat, 0, len(labels))
	for _, l := range labels {
		out = append(out, PhaseStat{Label: l, Dist: dist(samples[l])})
	}
	return out
}

func overlap(complete []*txRecord) OverlapStat {
	var o OverlapStat
	var before int
	for _, rec := range complete {
		if !rec.seen[trace.StageExecStart] || !rec.seen[trace.StageExecuted] {
			continue
		}
		es, ee := rec.at[trace.StageExecStart], rec.at[trace.StageExecuted]
		if ee < es {
			continue
		}
		o.ExecTxs++
		o.ExecTotal += ee - es
		if rec.seen[trace.StageSequenced] && rec.seen[trace.StageAgreed] {
			cs, ce := rec.at[trace.StageSequenced], rec.at[trace.StageAgreed]
			lo, hi := maxDur(es, cs), minDur(ee, ce)
			if hi > lo {
				o.Hidden += hi - lo
			}
			if ee <= ce {
				before++
			}
		}
	}
	if o.ExecTotal > 0 {
		o.Ratio = float64(o.Hidden) / float64(o.ExecTotal)
	}
	if o.ExecTxs > 0 {
		o.BeforeAgreedFrac = float64(before) / float64(o.ExecTxs)
	}
	return o
}

func windowStats(complete []*txRecord, windows []Window) []WindowStat {
	if len(windows) == 0 {
		return nil
	}
	out := make([]WindowStat, 0, len(windows)+1)
	inAny := make([]bool, len(complete))
	for _, w := range windows {
		var samples []time.Duration
		for i, rec := range complete {
			sub, not := rec.at[trace.StageSubmit], rec.at[trace.StageNotified]
			if not >= w.Start && sub < w.End {
				samples = append(samples, not-sub)
				inAny[i] = true
			}
		}
		out = append(out, WindowStat{Label: w.Label, Start: w.Start, End: w.End, Dist: dist(samples)})
	}
	var outside []time.Duration
	for i, rec := range complete {
		if !inAny[i] {
			outside = append(outside, rec.at[trace.StageNotified]-rec.at[trace.StageSubmit])
		}
	}
	out = append(out, WindowStat{Label: "outside windows", Dist: dist(outside)})
	return out
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
