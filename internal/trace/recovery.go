package trace

import "time"

// CommitSeries buckets client commit notifications (StageNotified, recorded
// exactly once per transaction when the commit notice reaches the client)
// into fixed-width bins of virtual time. The resulting series is the
// liveness evidence for fault-injection invariants: a fault shows up as a
// dip, recovery as the first post-fault bucket back above a floor (see
// the chaos tests' RecoveryAfter). Nil for a nil tracer or a width <= 0.
func (t *Tracer) CommitSeries(width time.Duration) []int {
	if t == nil || width <= 0 {
		return nil
	}
	var out []int
	for _, ev := range t.TxEvents() {
		if ev.Stage != StageNotified {
			continue
		}
		i := int(ev.At / width)
		for len(out) <= i {
			out = append(out, 0)
		}
		out[i]++
	}
	return out
}
