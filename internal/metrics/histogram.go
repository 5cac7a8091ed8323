package metrics

import (
	"math"
	"math/bits"
	"time"
)

// Histogram is a log2-bucketed duration histogram with an exact sum and
// count, so averages lose no precision while quantiles cost O(64). Bucket i
// covers durations whose nanosecond value has bit length i (bucket 0 holds
// d <= 0), i.e. [2^(i-1), 2^i) ns.
type Histogram struct {
	counts   [65]uint64
	n        uint64
	sum      time.Duration
	min, max time.Duration
}

func histBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[histBucket(d)]++
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Avg returns the exact mean sample.
func (h *Histogram) Avg() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper bound for the p-quantile (0 < p <= 1) using the
// nearest-rank method (the ceil(p*n)-th smallest sample, as in
// Collector.PercentileLatency) over the log2 buckets: the true value lies
// within a factor of two below the returned bound. Exact min/max tighten the
// tails.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(float64(h.n) * p))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			// Upper edge of bucket i is 2^i ns, clamped by the exact max.
			edge := time.Duration(1) << uint(i)
			if edge > h.max {
				edge = h.max
			}
			if edge < h.min {
				edge = h.min
			}
			return edge
		}
	}
	return h.max
}
