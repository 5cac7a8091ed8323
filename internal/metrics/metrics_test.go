package metrics

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

func id(b byte) types.TxID { return crypto.Hash([]byte{b}) }

func TestSubmittedCommittedLifecycle(t *testing.T) {
	c := NewCollector()
	c.Submitted(id(1), 10*time.Millisecond)
	c.Committed(id(1), 30*time.Millisecond, false)
	if c.NumSubmitted() != 1 || c.NumCommitted() != 1 || c.NumAborted() != 0 {
		t.Fatalf("counts: %d/%d/%d", c.NumSubmitted(), c.NumCommitted(), c.NumAborted())
	}
	if got := c.AvgLatency(0, time.Second); got != 20*time.Millisecond {
		t.Fatalf("latency %v, want 20ms", got)
	}
}

func TestCommitRequiresSubmission(t *testing.T) {
	c := NewCollector()
	c.Committed(id(1), time.Millisecond, false)
	if c.NumCommitted() != 0 {
		t.Fatal("unsolicited commit counted")
	}
}

func TestFirstCommitWins(t *testing.T) {
	c := NewCollector()
	c.Submitted(id(1), 0)
	c.Committed(id(1), 10*time.Millisecond, false)
	c.Committed(id(1), 50*time.Millisecond, true) // duplicate from another node
	if c.NumAborted() != 0 {
		t.Fatal("later duplicate overwrote the first commit")
	}
	if got := c.AvgLatency(0, time.Second); got != 10*time.Millisecond {
		t.Fatalf("latency %v, want 10ms", got)
	}
}

func TestDuplicateSubmissionKeepsFirstTime(t *testing.T) {
	c := NewCollector()
	c.Submitted(id(1), 5*time.Millisecond)
	c.Submitted(id(1), 50*time.Millisecond) // client retransmission
	c.Committed(id(1), 25*time.Millisecond, false)
	if got := c.AvgLatency(0, time.Second); got != 20*time.Millisecond {
		t.Fatalf("latency %v, want 20ms from first submission", got)
	}
}

func TestEffectiveThroughputWindow(t *testing.T) {
	c := NewCollector()
	for i := byte(0); i < 100; i++ {
		c.Submitted(id(i), 0)
		c.Committed(id(i), time.Duration(i)*10*time.Millisecond, i%10 == 0)
	}
	// Window [0, 500ms): commits at 0..490ms = 50 txns, 5 aborted.
	got := c.EffectiveThroughput(0, 500*time.Millisecond)
	if got != 90 { // 45 valid in 0.5s = 90/s
		t.Fatalf("throughput %.1f, want 90", got)
	}
	// Warmup window [250ms,500ms): 25 commits, 2 aborted (at 300,400ms... i=30,40)
	got = c.EffectiveThroughput(250*time.Millisecond, 500*time.Millisecond)
	if got < 80 || got > 100 {
		t.Fatalf("warmup-window throughput %.1f", got)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector()
	for i := byte(1); i <= 100; i++ {
		c.Submitted(id(i), 0)
		c.Committed(id(i), time.Duration(i)*time.Millisecond, false)
	}
	if p50 := c.PercentileLatency(0.5, 0, time.Second); p50 != 50*time.Millisecond {
		t.Fatalf("p50 %v", p50)
	}
	if p99 := c.PercentileLatency(0.99, 0, time.Second); p99 != 99*time.Millisecond {
		t.Fatalf("p99 %v", p99)
	}
	if p100 := c.PercentileLatency(1.0, 0, time.Second); p100 != 100*time.Millisecond {
		t.Fatalf("p100 %v", p100)
	}
}

func TestLatencyCacheInvalidation(t *testing.T) {
	c := NewCollector()
	for i := byte(1); i <= 10; i++ {
		c.Submitted(id(i), 0)
		c.Committed(id(i), time.Duration(i)*time.Millisecond, false)
	}
	// Prime the cache, then query the same window repeatedly.
	if p50 := c.PercentileLatency(0.5, 0, time.Second); p50 != 5*time.Millisecond {
		t.Fatalf("p50 %v", p50)
	}
	if avg := c.AvgLatency(0, time.Second); avg != 5500*time.Microsecond {
		t.Fatalf("avg %v", avg)
	}
	// A new commit must invalidate the cached sort.
	c.Submitted(id(11), 0)
	c.Committed(id(11), 100*time.Millisecond, false)
	if p100 := c.PercentileLatency(1.0, 0, time.Second); p100 != 100*time.Millisecond {
		t.Fatalf("p100 after new commit %v, want 100ms (stale cache?)", p100)
	}
	// A different window must bypass the cache too.
	if p100 := c.PercentileLatency(1.0, 0, 50*time.Millisecond); p100 != 10*time.Millisecond {
		t.Fatalf("p100 over narrow window %v, want 10ms", p100)
	}
}

func TestTimelineBuckets(t *testing.T) {
	c := NewCollector()
	// 10 commits in bucket 0, 20 in bucket 1; one abort in bucket 1.
	for i := byte(0); i < 10; i++ {
		c.Submitted(id(i), 0)
		c.Committed(id(i), 50*time.Millisecond, false)
	}
	for i := byte(10); i < 30; i++ {
		c.Submitted(id(i), 0)
		c.Committed(id(i), 150*time.Millisecond, i == 10)
	}
	buckets := c.Timeline(100*time.Millisecond, 300*time.Millisecond)
	if len(buckets) != 3 {
		t.Fatalf("buckets %d", len(buckets))
	}
	if buckets[0] != 100 || buckets[1] != 190 || buckets[2] != 0 {
		t.Fatalf("buckets %v, want [100 190 0]", buckets)
	}
}

func TestPhaseAveraging(t *testing.T) {
	c := NewCollector()
	c.Phase(PhaseConsensus, 10*time.Millisecond)
	c.Phase(PhaseConsensus, 20*time.Millisecond)
	if got := c.PhaseAvg(PhaseConsensus); got != 15*time.Millisecond {
		t.Fatalf("avg %v", got)
	}
	if got := c.PhaseAvg(PhaseEndorse); got != 0 {
		t.Fatalf("unobserved phase avg %v", got)
	}
}

func TestAbortRateAndSpecRate(t *testing.T) {
	c := NewCollector()
	for i := byte(0); i < 10; i++ {
		c.Submitted(id(i), 0)
		c.Committed(id(i), time.Millisecond, i < 3)
	}
	if got := c.AbortRate(); got != 0.3 {
		t.Fatalf("abort rate %.2f", got)
	}
	c.Speculated = 100
	c.SpecMatched = 80
	if got := c.SpecSuccessRate(); got != 0.8 {
		t.Fatalf("spec rate %.2f", got)
	}
	empty := NewCollector()
	if empty.AbortRate() != 0 || empty.SpecSuccessRate() != 0 {
		t.Fatal("empty collector rates nonzero")
	}
}
