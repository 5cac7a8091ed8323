package metrics

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression: Timeline used to index out of bounds when the horizon was not
// an integer multiple of the bucket width and a commit landed in the partial
// final bucket (e.g. 240ms with a 250ms horizon and 100ms buckets).
func TestTimelinePartialFinalBucket(t *testing.T) {
	c := NewCollector()
	c.Submitted(id(1), 0)
	c.Committed(id(1), 240*time.Millisecond, false)
	buckets := c.Timeline(100*time.Millisecond, 250*time.Millisecond)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	// The commit at 240ms falls past the last full bucket and is dropped
	// rather than panicking or being misattributed.
	if buckets[0] != 0 || buckets[1] != 0 {
		t.Fatalf("buckets = %v, want [0 0]", buckets)
	}

	// A commit inside a represented bucket still counts.
	c.Submitted(id(2), 0)
	c.Committed(id(2), 150*time.Millisecond, false)
	buckets = c.Timeline(100*time.Millisecond, 250*time.Millisecond)
	if buckets[1] != 10 { // 1 txn / 0.1s
		t.Fatalf("buckets = %v, want bucket1 == 10", buckets)
	}
}

// PercentileLatency uses the nearest-rank definition: the p-quantile of n
// sorted samples is element ceil(p*n)-1.
func TestPercentileNearestRank(t *testing.T) {
	mk := func(n int) *Collector {
		c := NewCollector()
		for i := 1; i <= n; i++ {
			c.Submitted(id(byte(i)), 0)
			c.Committed(id(byte(i)), time.Duration(i)*time.Millisecond, false)
		}
		return c
	}
	cases := []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{1, 0.5, time.Millisecond}, // single sample: every quantile is it
		{1, 0.99, time.Millisecond},
		{2, 0.5, time.Millisecond},      // ceil(0.5*2)=1 -> first element
		{2, 0.51, 2 * time.Millisecond}, // ceil(1.02)=2 -> second element
		{4, 0.25, time.Millisecond},     // exact quartile boundary
		{4, 0.75, 3 * time.Millisecond},
		{5, 0.5, 3 * time.Millisecond}, // odd n: true median
		{100, 0.95, 95 * time.Millisecond},
		{100, 1.0, 100 * time.Millisecond},
		{100, 0.0, time.Millisecond}, // p=0 clamps to the minimum
	}
	for _, tc := range cases {
		c := mk(tc.n)
		if got := c.PercentileLatency(tc.p, 0, time.Second); got != tc.want {
			t.Errorf("n=%d p=%v: got %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	// No samples in the window.
	c := NewCollector()
	if got := c.PercentileLatency(0.5, 0, time.Second); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// EffectiveThroughput divides by the window length, including when the
// window does not start at zero.
func TestEffectiveThroughputNonZeroFrom(t *testing.T) {
	c := NewCollector()
	// 30 valid commits between 500ms and 800ms.
	for i := 0; i < 30; i++ {
		c.Submitted(id(byte(i)), 0)
		c.Committed(id(byte(i)), 500*time.Millisecond+time.Duration(i)*10*time.Millisecond, false)
	}
	// Window [500ms, 1s): 30 txns over 0.5s = 60/s.
	if got := c.EffectiveThroughput(500*time.Millisecond, time.Second); got != 60 {
		t.Fatalf("throughput = %.1f, want 60", got)
	}
	// Degenerate window yields zero, not NaN/Inf.
	if got := c.EffectiveThroughput(time.Second, time.Second); got != 0 {
		t.Fatalf("zero-width window throughput = %.1f, want 0", got)
	}
}

// Counter adds are atomic and commutative, so four goroutines bumping them
// concurrently must leave exactly the serial totals.
func TestRegistryCounters(t *testing.T) {
	const workers, per = 4, 1000
	write := func(c *Collector, w int) {
		for i := 0; i < per; i++ {
			atomic.AddUint64(&c.PersistMsgs, 1)
			atomic.AddUint64(&c.PersistFlushEntries, uint64(w))
		}
	}
	serial, parallel := NewCollector(), NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		write(serial, w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			write(parallel, w)
		}(w)
	}
	wg.Wait()
	if parallel.PersistMsgs != workers*per || parallel.PersistFlushEntries != (0+1+2+3)*per {
		t.Errorf("counters = %d/%d", parallel.PersistMsgs, parallel.PersistFlushEntries)
	}
	var a, b bytes.Buffer
	if err := serial.WriteSummary(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.Len() == 0 {
		t.Errorf("summaries differ:\n%s---\n%s", a.String(), b.String())
	}
}
