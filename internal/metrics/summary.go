package metrics

import (
	"fmt"
	"io"
	"time"
)

// Summary is a run's headline numbers. Throughput and the latencies are
// taken over a measurement window; Committed, AbortRate and SpecSuccess over
// the whole run.
type Summary struct {
	Throughput  float64 // effective (valid committed) txns/s
	AvgLatency  time.Duration
	P50, P99    time.Duration
	Committed   int
	AbortRate   float64
	SpecSuccess float64
}

// Summarize computes the headline numbers with [from, to) as the window.
func (c *Collector) Summarize(from, to time.Duration) Summary {
	return Summary{
		Throughput:  c.EffectiveThroughput(from, to),
		AvgLatency:  c.AvgLatency(from, to),
		P50:         c.PercentileLatency(0.5, from, to),
		P99:         c.PercentileLatency(0.99, from, to),
		Committed:   c.NumCommitted(),
		AbortRate:   c.AbortRate(),
		SpecSuccess: c.SpecSuccessRate(),
	}
}

// String renders the summary as the one line `bidl run` prints per seed.
func (s Summary) String() string {
	return fmt.Sprintf("throughput=%.0f txns/s avg_latency=%v p99=%v committed=%d abort_rate=%.2f%% spec_success=%.1f%%",
		s.Throughput, s.AvgLatency.Round(10*time.Microsecond), s.P99.Round(10*time.Microsecond),
		s.Committed, s.AbortRate*100, s.SpecSuccess*100)
}

// WriteSummary renders the PERSIST counters as the -telemetry "registry
// metrics" block: sorted by name, one line per counter, zero counters
// omitted. A collector with nothing to show prints nothing (no header), so
// callers can append the block unconditionally. Call it once the simulation
// is quiescent.
func (c *Collector) WriteSummary(w io.Writer) error {
	header := "registry metrics:\n"
	for _, ctr := range []struct {
		name string
		v    uint64
	}{
		{"cn.persist_flush_entries", c.PersistFlushEntries},
		{"cn.persist_flushes", c.PersistFlushes},
		{"nn.persist_badsig", c.PersistBadSigs},
		{"nn.persist_msgs", c.PersistMsgs},
	} {
		if ctr.v == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s  counter  %-24s %d\n", header, ctr.name, ctr.v); err != nil {
			return err
		}
		header = ""
	}
	return nil
}
