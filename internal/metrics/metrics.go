// Package metrics collects per-transaction measurements from a simulated
// blockchain run: client-perceived latency (submit → commit notification, the
// paper's end-to-end metric, §6), effective throughput (valid committed
// transactions per second, §6.2), abort and re-execution counters, and a
// real-time throughput timeline (Fig 7). Where latency went between the two
// ends is the tracer's record (internal/trace), not this package's.
package metrics

import (
	"math"
	"sort"
	"time"

	"github.com/bidl-framework/bidl/internal/types"
)

// txRecord is one client transaction as the collector sees it: when it was
// first submitted and, once done, when its first commit notice arrived.
type txRecord struct {
	submitted, committed time.Duration
	done, aborted        bool
}

// Collector is a run's always-on, exact metrics store. The transaction
// records, the latency cache and the counters are touched only from the
// simulation's one event loop, which needs no locking; the counter sites use
// atomic.AddUint64, whose adds commute.
type Collector struct {
	txs                map[types.TxID]txRecord
	committed, aborted int

	// latCache memoizes the sorted latency slice for the last queried
	// window: Avg/P50/P99 over the same [from, to) would otherwise each
	// copy and re-sort every commit latency. A new commit invalidates it.
	latCache      []time.Duration
	latCacheSum   time.Duration
	latCacheFrom  time.Duration
	latCacheTo    time.Duration
	latCacheValid bool

	// counters
	Reexecuted     uint64 // transactions re-executed in commit fallback
	Speculated     uint64 // transactions executed speculatively
	SpecMatched    uint64 // speculations confirmed by consensus
	Conflicts      uint64 // sequence-space conflicts observed
	ViewChanges    uint64
	DeniedClients  uint64
	MVCCAborts     uint64 // HLF/FF validation aborts (contention)
	NondetAborts   uint64 // result-vector mismatches (non-determinism)
	RejectedTxns   uint64 // malformed/invalid submissions dropped
	RetransmitReqs uint64 // payload fetches due to loss

	// PERSIST echo traffic (Algo 2 lines 15-18), printed by WriteSummary.
	PersistFlushes      uint64 // PERSIST batches flushed by consensus nodes
	PersistFlushEntries uint64 // entries in those batches
	PersistMsgs         uint64 // PERSIST messages received by normal nodes
	PersistBadSigs      uint64 // of those, dropped for a bad signature
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{txs: make(map[types.TxID]txRecord)}
}

// Submitted records that tx was handed to the framework at time at; a
// retransmission keeps the first time.
func (c *Collector) Submitted(id types.TxID, at time.Duration) {
	if _, ok := c.txs[id]; !ok {
		c.txs[id] = txRecord{submitted: at}
	}
}

// Committed records the first commit notification for id. aborted marks
// transactions that committed as aborts (no state change). Commits of
// transactions never submitted through the collector (e.g. an adversary's
// own traffic) are ignored: effective throughput counts client
// transactions (§6.2).
func (c *Collector) Committed(id types.TxID, at time.Duration, aborted bool) {
	r, ok := c.txs[id]
	if !ok || r.done {
		return
	}
	r.committed, r.done, r.aborted = at, true, aborted
	c.txs[id] = r
	c.committed++
	if aborted {
		c.aborted++
	}
	c.latCacheValid = false
}

// IsCommitted reports whether id has a recorded commit.
func (c *Collector) IsCommitted(id types.TxID) bool { return c.txs[id].done }

// NumSubmitted returns the number of distinct submitted transactions.
func (c *Collector) NumSubmitted() int { return len(c.txs) }

// NumCommitted returns the number of distinct committed transactions
// (including aborted ones).
func (c *Collector) NumCommitted() int { return c.committed }

// NumAborted returns the number of transactions committed as aborts.
func (c *Collector) NumAborted() int { return c.aborted }

// AbortRate returns aborted / committed.
func (c *Collector) AbortRate() float64 {
	if c.committed == 0 {
		return 0
	}
	return float64(c.aborted) / float64(c.committed)
}

// EffectiveThroughput returns valid (non-aborted) committed transactions per
// second within [from, to).
func (c *Collector) EffectiveThroughput(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	n := 0
	for _, r := range c.txs {
		if r.done && !r.aborted && r.committed >= from && r.committed < to {
			n++
		}
	}
	return float64(n) / (to - from).Seconds()
}

// latencies returns sorted commit latencies for transactions committed in
// [from, to). The result is cached (along with its sum) until the next
// commit or a query for a different window; callers must not mutate it.
func (c *Collector) latencies(from, to time.Duration) []time.Duration {
	if c.latCacheValid && c.latCacheFrom == from && c.latCacheTo == to {
		return c.latCache
	}
	ls := c.latCache[:0]
	var sum time.Duration
	for _, r := range c.txs {
		if r.done && r.committed >= from && r.committed < to {
			ls = append(ls, r.committed-r.submitted)
			sum += r.committed - r.submitted
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	c.latCache = ls
	c.latCacheSum = sum
	c.latCacheFrom = from
	c.latCacheTo = to
	c.latCacheValid = true
	return ls
}

// AvgLatency returns the mean commit latency over [from, to).
func (c *Collector) AvgLatency(from, to time.Duration) time.Duration {
	ls := c.latencies(from, to)
	if len(ls) == 0 {
		return 0
	}
	return c.latCacheSum / time.Duration(len(ls))
}

// PercentileLatency returns the p-quantile (0 < p <= 1) latency in [from,to)
// by the nearest-rank method: the ceil(p*n)-th smallest sample. Flooring the
// rank instead (the previous int(p*n)) under-reports whenever p*n is not an
// integer — e.g. p99 over 10 samples returned the 9th instead of the 10th.
func (c *Collector) PercentileLatency(p float64, from, to time.Duration) time.Duration {
	ls := c.latencies(from, to)
	if len(ls) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(ls)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ls) {
		idx = len(ls) - 1
	}
	return ls[idx]
}

// Timeline buckets committed valid transactions into windows of the given
// width over [0, horizon) and returns each bucket as a txns/s rate — the
// real-time throughput curve of Fig 7.
func (c *Collector) Timeline(width, horizon time.Duration) []float64 {
	n := int(horizon / width)
	if n <= 0 {
		return nil
	}
	buckets := make([]float64, n)
	for _, r := range c.txs {
		if !r.done || r.aborted || r.committed >= horizon {
			continue
		}
		// When horizon is not an integer multiple of width, commits in the
		// partial tail window [n*width, horizon) have no full bucket; they
		// are dropped rather than indexing past the slice.
		if idx := int(r.committed / width); idx < n {
			buckets[idx]++
		}
	}
	for i := range buckets {
		buckets[i] /= width.Seconds()
	}
	return buckets
}

// SpecSuccessRate returns confirmed speculations / total speculations.
func (c *Collector) SpecSuccessRate() float64 {
	if c.Speculated == 0 {
		return 0
	}
	return float64(c.SpecMatched) / float64(c.Speculated)
}
