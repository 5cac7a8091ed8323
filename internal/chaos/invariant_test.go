package chaos

// The invariant engine that judges a catalog run: only the chaos tests run
// catalog entries against their Invariants (TestChaosCatalog), so it lives
// with them.

import (
	"fmt"
	"strings"
	"time"
)

// RunStats is the post-run evidence the invariant engine judges: end-state
// consistency from the cluster's safety audit, counters from the metrics
// collector, and the committed-per-bucket time series extracted from the
// trace (client commit notices bucketed over virtual time).
type RunStats struct {
	Committed   uint64
	ViewChanges uint64
	SafetyErr   error

	// Series[i] is the number of transactions whose commit notice reached
	// the client in bucket [i*BucketWidth, (i+1)*BucketWidth).
	Series      []int
	BucketWidth time.Duration

	// FaultEnd is the latest bounded fault-window end in the schedule —
	// the earliest virtual time recovery can be expected to begin.
	FaultEnd time.Duration
}

// ScheduleEnd returns the latest bounded fault-window end in the schedule
// (permanent faults are skipped: nothing recovers from them, so liveness
// is measured against the windows that do heal).
func ScheduleEnd(faults []Fault) time.Duration {
	var end time.Duration
	for _, f := range faults {
		if e := f.End(); e < 1<<62 && e > end {
			end = e
		}
	}
	return end
}

// RecoveryAfter returns the start of the first bucket beginning at or
// after `after` whose count reaches floor, or -1 if none does. Pure
// arithmetic over the trace-derived series so it is unit-testable without
// a simulation.
func RecoveryAfter(series []int, width, after time.Duration, floor int) time.Duration {
	if width <= 0 || floor <= 0 {
		return -1
	}
	for i, n := range series {
		start := time.Duration(i) * width
		if start < after {
			continue
		}
		if n >= floor {
			return start
		}
	}
	return -1
}

// Check is one evaluated invariant.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Report is the invariant engine's verdict for one run.
type Report struct {
	ID     string
	Checks []Check
}

// OK reports whether every check passed.
func (r Report) OK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Render formats the report as stable, diffable text — one line per check
// — for golden-file comparison. Details embed exact counters, so a golden
// report also pins the run's deterministic outcome, not just pass/fail.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.ID)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %-12s %-4s %s\n", c.Name, status, c.Detail)
	}
	return b.String()
}

// Evaluate judges the run against the invariants, skipping zero-valued
// checks.
func Evaluate(id string, inv Invariants, st RunStats) Report {
	r := Report{ID: id}
	if inv.RequireConsistent {
		detail := "all correct nodes consistent"
		if st.SafetyErr != nil {
			detail = st.SafetyErr.Error()
		}
		r.Checks = append(r.Checks, Check{"consistency", st.SafetyErr == nil, detail})
	}
	if inv.MinCommitted > 0 {
		r.Checks = append(r.Checks, Check{
			"progress",
			st.Committed >= inv.MinCommitted,
			fmt.Sprintf("committed %d (floor %d)", st.Committed, inv.MinCommitted),
		})
	}
	if inv.MinViewChanges > 0 {
		r.Checks = append(r.Checks, Check{
			"view_changes",
			st.ViewChanges >= inv.MinViewChanges,
			fmt.Sprintf("view changes %d (floor %d)", st.ViewChanges, inv.MinViewChanges),
		})
	}
	if inv.RecoveryFloor > 0 {
		at := RecoveryAfter(st.Series, st.BucketWidth, st.FaultEnd, inv.RecoveryFloor)
		switch {
		case at < 0:
			r.Checks = append(r.Checks, Check{
				"recovery", false,
				fmt.Sprintf("no bucket after %s reached %d commits/bucket", st.FaultEnd, inv.RecoveryFloor),
			})
		default:
			ok := inv.RecoverBy == 0 || at <= inv.RecoverBy
			r.Checks = append(r.Checks, Check{
				"recovery", ok,
				fmt.Sprintf("recovered at %s (faults end %s, deadline %s)", at, st.FaultEnd, inv.RecoverBy),
			})
		}
	}
	return r
}
