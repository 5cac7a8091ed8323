package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/workload"
)

func loadSpec(rate float64, window time.Duration) LoadSpec {
	return LoadSpec{Rate: rate, Window: Duration(window)}
}

// linear is the fixed-rate cumulative curve: rate × elapsed seconds.
func linear(rate float64) func(time.Duration) float64 {
	return func(t time.Duration) float64 { return rate * t.Seconds() }
}

// TestConstantShapeMatchesLegacySchedule: the compiled constant shape must
// reproduce the fixed-rate schedule tick-for-tick — the property that keeps
// every pre-existing experiment golden byte-identical.
func TestConstantShapeMatchesLegacySchedule(t *testing.T) {
	for _, rate := range []float64{0, 333, 1234.5, 44000} {
		window := 750 * time.Millisecond
		type call struct {
			at time.Duration
			n  int
		}
		var legacy, shaped []call
		nl := ScheduleCumulative(linear(rate), window, func(at time.Duration, n int) {
			legacy = append(legacy, call{at, n})
		})
		l := loadSpec(rate, window).withShapeDefaults()
		ns := ScheduleCumulative(l.cumulative(), window, func(at time.Duration, n int) {
			shaped = append(shaped, call{at, n})
		})
		if nl != ns || len(legacy) != len(shaped) {
			t.Fatalf("rate %g: legacy %d ticks/%d total, shaped %d/%d", rate, len(legacy), nl, len(shaped), ns)
		}
		for i := range legacy {
			if legacy[i] != shaped[i] {
				t.Fatalf("rate %g tick %d: legacy %+v, shaped %+v", rate, i, legacy[i], shaped[i])
			}
		}
	}
}

// TestShapesPreserveMeanRate: over the window, its one whole period, every
// shape offers exactly Rate × elapsed transactions.
func TestShapesPreserveMeanRate(t *testing.T) {
	window := 1 * time.Second
	for _, shape := range []string{ShapeConstant, ShapeDiurnal, ShapeBurst} {
		l := loadSpec(10000, window)
		l.Shape = shape
		l = l.withShapeDefaults()
		total := ScheduleCumulative(l.cumulative(), window, func(time.Duration, int) {})
		if want := 10000; total != want {
			t.Fatalf("shape %s scheduled %d over 1s at 10000/s, want %d", shape, total, want)
		}
	}
}

// TestDiurnalShapeModulates: the first half of a trough-started diurnal
// cycle must carry visibly less load than the second half.
func TestDiurnalShapeModulates(t *testing.T) {
	window := 1 * time.Second
	l := loadSpec(10000, window)
	l.Shape = ShapeDiurnal
	l = l.withShapeDefaults() // period = window: one cycle
	quarter := window / 4
	firstQuarter := 0
	ScheduleCumulative(l.cumulative(), window, func(at time.Duration, n int) {
		if at < quarter {
			firstQuarter += n
		}
	})
	// The cycle starts at the trough, so the first quarter carries
	// 1/4 − A/(2π) ≈ 17.0% of the load at amplitude 0.5.
	if f := float64(firstQuarter) / 10000; f > 0.19 || f < 0.15 {
		t.Fatalf("diurnal first-quarter share = %.3f, want ~0.17", f)
	}
}

// TestBurstShapeConcentratesLoad: a burst shape front-loads each period.
func TestBurstShapeConcentratesLoad(t *testing.T) {
	window := 1 * time.Second
	l := loadSpec(10000, window)
	l.Shape = ShapeBurst
	l.BurstMultiplier = 4
	l.BurstDuty = 0.2
	l = l.withShapeDefaults()
	inBurst := 0
	ScheduleCumulative(l.cumulative(), window, func(at time.Duration, n int) {
		if at < 200*time.Millisecond { // duty 0.2 of the single 1s period
			inBurst += n
		}
	})
	// Burst phase carries m·d = 80% of the period's load.
	if f := float64(inBurst) / 10000; math.Abs(f-0.8) > 0.02 {
		t.Fatalf("burst-phase share = %.3f, want ~0.80", f)
	}
}

// TestClosedLoopBackpressure drives the controller against a scripted
// harness: a saturated in-flight window must withhold load and back off;
// freed capacity must resume submission up to the demand curve.
func TestClosedLoopBackpressure(t *testing.T) {
	gen := workload.NewGenerator(workload.DefaultConfig(4), crypto.NewHMACScheme([]byte("cl")))
	f := &fakeHarness{}
	l := loadSpec(1000, 50*time.Millisecond)
	l.ClosedLoop = &ClosedLoopSpec{MaxInFlight: 10}
	// Script: free, free, then saturated for 3 polls, then free again.
	f.inFlight = []int{0, 0, 10, 10, 10, 0}
	submitted := ScheduleLoad(f, gen, l)
	f.Run(time.Second)
	if submitted() == 0 {
		t.Fatal("closed loop submitted nothing")
	}
	// Demand over 50ms at 1000/s is 50; the cap is 10 per poll, so the
	// total must stay well under open-loop demand while remaining > 0.
	for _, n := range f.submitted {
		if n > 10 {
			t.Fatalf("single submission %d exceeds max_in_flight 10", n)
		}
	}
	if got := submitted(); got >= 50 {
		t.Fatalf("backpressured total %d not below open-loop demand 50", got)
	}
	// Back-off growth: while saturated, consecutive poll gaps must grow.
	var gaps []time.Duration
	for i := 1; i < len(f.timers); i++ {
		gaps = append(gaps, f.timers[i].at-f.timers[i-1].at)
	}
	grew := false
	for i := 1; i < len(gaps); i++ {
		if gaps[i] > gaps[i-1] {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("no back-off growth in poll gaps %v", gaps)
	}
}

// TestClosedLoopEndToEnd runs a real (tiny) BIDL cluster closed-loop and
// checks the in-flight invariant indirectly: the run completes, commits
// transactions, and stays consistent.
func TestClosedLoopEndToEnd(t *testing.T) {
	s := Scenario{
		Nodes: NodesSpec{Orgs: 4},
		Load: LoadSpec{
			Rate:   2000,
			Window: Duration(300 * time.Millisecond),
			ClosedLoop: &ClosedLoopSpec{
				MaxInFlight: 64,
			},
		},
		Workload: WorkloadSpec{Clients: 16, Accounts: 400, ZipfS: 1.5, Settlement: 0.2},
		// Closed loop must pin the serial engine even when workers are set.
		SimWorkers: 4,
	}
	if got := s.effectiveSimWorkers(); got != 0 {
		t.Fatalf("closed-loop spec compiled to %d sim workers, want 0", got)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted == 0 {
		t.Fatal("closed-loop run submitted nothing")
	}
	if res.Submitted > 600 {
		t.Fatalf("closed-loop submitted %d, demand cap is 600", res.Submitted)
	}
	if res.Throughput == 0 {
		t.Fatal("closed-loop run committed nothing")
	}
	if res.SafetyErr != nil {
		t.Fatalf("safety: %v", res.SafetyErr)
	}
}

// TestShapedLoadValidation covers the new Validate rules.
func TestShapedLoadValidation(t *testing.T) {
	base := Scenario{Load: loadSpec(100, 100*time.Millisecond)}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"bad shape", func(s *Scenario) { s.Load.Shape = "sawtooth" }, "load_shape"},
		{"duty", func(s *Scenario) { s.Load.Shape = ShapeBurst; s.Load.BurstDuty = 1.2 }, "burst_duty"},
		{"overcommitted burst", func(s *Scenario) { s.Load.Shape = ShapeBurst; s.Load.BurstMultiplier = 6 }, "burst_multiplier*burst_duty"},
		{"zipf", func(s *Scenario) { s.Workload.ZipfS = 0.4 }, "zipf_s"},
		{"settlement range", func(s *Scenario) { s.Workload.Settlement = 1.4 }, "settlement"},
		{"settlement+nondet", func(s *Scenario) { s.Workload.Settlement = 0.6; s.Workload.Nondet = 0.6 }, "settlement + workload.nondet"},
		{"closed loop window", func(s *Scenario) { s.Load.ClosedLoop = &ClosedLoopSpec{MaxInFlight: -1} }, "max_in_flight"},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	// Valid shaped/closed-loop specs must pass.
	ok := base
	ok.Load.Shape = ShapeBurst
	ok.Load.ClosedLoop = &ClosedLoopSpec{}
	ok.Workload.ZipfS = 1.5
	ok.Workload.Settlement = 0.3
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid shaped spec rejected: %v", err)
	}
}

// TestShapedRunsSafe runs each shape end-to-end on BIDL and checks
// commit progress and safety.
func TestShapedRunsSafe(t *testing.T) {
	for _, shape := range []string{ShapeDiurnal, ShapeBurst} {
		s := Scenario{
			Nodes:    NodesSpec{Orgs: 4},
			Load:     LoadSpec{Rate: 2000, Window: Duration(300 * time.Millisecond), Shape: shape},
			Workload: WorkloadSpec{Clients: 16, Accounts: 400},
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if res.Throughput == 0 || res.SafetyErr != nil {
			t.Fatalf("%s: throughput %.1f, safety %v", shape, res.Throughput, res.SafetyErr)
		}
	}
}

// TestScheduleTicksExactTotal pins the anti-drift contract of the
// millisecond ticks: for any rate, the total scheduled over a window equals round(rate * window_seconds)
// exactly. The seed implementation carried a running float accumulator whose
// rounding error could compound across thousands of ticks and under-deliver.
func TestScheduleTicksExactTotal(t *testing.T) {
	cases := []struct {
		rate   float64
		window time.Duration
	}{
		{3333.3, 7 * time.Second}, // awkward repeating fraction
		{999.9, 7 * time.Second},
		{44000, 1200 * time.Millisecond},
		{0.1, 30 * time.Second}, // far below one txn per tick
		{7, 999 * time.Millisecond},
		{123456.78, 2 * time.Second},
	}
	for _, tc := range cases {
		total := ScheduleCumulative(linear(tc.rate), tc.window, func(time.Duration, int) {})
		want := int(math.Round(tc.rate * tc.window.Seconds()))
		if total != want {
			t.Errorf("rate %.2f over %v: scheduled %d, want exactly %d",
				tc.rate, tc.window, total, want)
		}
	}
}

// TestScheduleTicksMonotonic checks ticks arrive in order, inside the
// window, with positive counts summing to the returned total.
func TestScheduleTicksMonotonic(t *testing.T) {
	last := time.Duration(-1)
	sum := 0
	total := ScheduleCumulative(linear(3333.3), 2*time.Second, func(at time.Duration, n int) {
		if at <= last {
			t.Fatalf("tick at %v not after previous %v", at, last)
		}
		if at >= 2*time.Second {
			t.Fatalf("tick at %v outside window", at)
		}
		if n <= 0 {
			t.Fatalf("non-positive tick count %d", n)
		}
		last = at
		sum += n
	})
	if sum != total {
		t.Fatalf("tick counts sum to %d, returned total %d", sum, total)
	}
}
