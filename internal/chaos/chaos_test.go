package chaos

import (
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/types"
)

// TestValidateSchedule covers each rejection class of the schedule
// validator, plus representative well-formed schedules (including
// back-to-back windows on the same target, which must NOT be treated as
// overlapping).
func TestValidateSchedule(t *testing.T) {
	ms := func(n int) types.Duration { return types.Duration(n) * types.Duration(time.Millisecond) }
	cases := []struct {
		name   string
		faults []Fault
		want   string // substring of the expected error; "" = valid
	}{
		{"empty", nil, ""},
		{"crash", []Fault{{Kind: KindCrash, At: ms(100), Duration: ms(200), Org: 1}}, ""},
		{"permanent-crash", []Fault{{Kind: KindCrash, At: ms(100)}}, ""},
		{"storm", []Fault{{Kind: KindDropStorm, At: ms(100), Duration: ms(100), Rate: 0.5}}, ""},
		{"churn", []Fault{{Kind: KindChurn, Count: 3, Period: ms(100)}}, ""},
		{"unknown-kind", []Fault{{Kind: "meteor"}}, `unknown kind "meteor"`},
		{"negative-at", []Fault{{Kind: KindCrash, At: -ms(1)}}, "times must be >= 0"},
		{"negative-duration", []Fault{{Kind: KindCrash, Duration: -ms(1)}}, "times must be >= 0"},
		{"negative-org", []Fault{{Kind: KindCrash, Org: -1}}, "targets and counts must be >= 0"},
		{"rate-too-high", []Fault{{Kind: KindDropStorm, Duration: ms(10), Rate: 1.5}}, "rate must be in [0,1]"},
		{"storm-zero-rate", []Fault{{Kind: KindDropStorm, Duration: ms(10)}}, "rate must be > 0"},
		{"windowed-zero-duration", []Fault{{Kind: KindPartition, Org: 1}}, "duration must be > 0"},
		{"shapeless-churn", []Fault{{Kind: KindChurn, Count: 3}}, "count and period must be > 0"},
		{
			"overlapping-storms",
			[]Fault{
				{Kind: KindDropStorm, At: ms(100), Duration: ms(200), Rate: 0.5},
				{Kind: KindDropStorm, At: ms(250), Duration: ms(100), Rate: 0.5},
			},
			"active windows overlap",
		},
		{
			"overlapping-same-node-crashes",
			[]Fault{
				{Kind: KindCrash, At: ms(100), Duration: ms(300), Org: 1, Node: 0},
				{Kind: KindCrash, At: ms(200), Duration: ms(100), Org: 1, Node: 0},
			},
			"active windows overlap",
		},
		{
			// Different targets may fail concurrently.
			"concurrent-distinct-crashes",
			[]Fault{
				{Kind: KindCrash, At: ms(100), Duration: ms(300), Org: 1, Node: 0},
				{Kind: KindCrash, At: ms(100), Duration: ms(300), Org: 2, Node: 0},
			},
			"",
		},
		{
			// [100,300) then [300,400): touching endpoints do not overlap.
			"back-to-back-windows",
			[]Fault{
				{Kind: KindPartition, At: ms(100), Duration: ms(200), Org: 1},
				{Kind: KindPartition, At: ms(300), Duration: ms(100), Org: 1},
			},
			"",
		},
		{
			"overlap-with-permanent",
			[]Fault{
				{Kind: KindCrash, At: ms(100), Org: 1, Node: 0}, // permanent
				{Kind: KindCrash, At: ms(500), Duration: ms(100), Org: 1, Node: 0},
			},
			"active windows overlap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateSchedule(tc.faults)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestScheduleEnd pins the fault-window arithmetic the recovery invariant
// measures from: bounded windows contribute their ends, permanent faults
// and broadcasters (horizon sentinels) are skipped, churn ends after its
// last cycle.
func TestScheduleEnd(t *testing.T) {
	ms := func(n int) types.Duration { return types.Duration(n) * types.Duration(time.Millisecond) }
	cases := []struct {
		name   string
		faults []Fault
		want   types.Duration
	}{
		{"empty", nil, 0},
		{"one-window", []Fault{{Kind: KindCrash, At: ms(100), Duration: ms(200)}}, ms(300)},
		{"latest-wins", []Fault{
			{Kind: KindCrash, At: ms(100), Duration: ms(200)},
			{Kind: KindPartition, At: ms(300), Duration: ms(250), Org: 1},
		}, ms(550)},
		{"permanent-skipped", []Fault{
			{Kind: KindCrash, At: ms(100)},
			{Kind: KindDropStorm, At: ms(50), Duration: ms(100), Rate: 0.5},
		}, ms(150)},
		{"broadcaster-skipped", []Fault{{Kind: KindBroadcaster, At: ms(100)}}, 0},
		{"churn-cycles", []Fault{{Kind: KindChurn, At: ms(100), Count: 4, Period: ms(200)}}, ms(900)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ScheduleEnd(tc.faults); got != tc.want.D() {
				t.Fatalf("ScheduleEnd = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestRecoveryAfter pins the pure arithmetic of the liveness gate.
func TestRecoveryAfter(t *testing.T) {
	w := 50 * time.Millisecond
	series := []int{90, 100, 5, 0, 2, 40, 95, 100}
	cases := []struct {
		name  string
		after time.Duration
		floor int
		want  time.Duration
	}{
		{"first-healthy-bucket-after-fault", 150 * time.Millisecond, 30, 250 * time.Millisecond},
		{"pre-fault-buckets-ignored", 100 * time.Millisecond, 80, 300 * time.Millisecond},
		{"after-mid-bucket-rounds-up", 260 * time.Millisecond, 30, 300 * time.Millisecond},
		{"never-recovers", 150 * time.Millisecond, 200, -1},
		{"zero-after-sees-first-bucket", 0, 30, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := RecoveryAfter(series, w, tc.after, tc.floor); got != tc.want {
				t.Fatalf("RecoveryAfter = %s, want %s", got, tc.want)
			}
		})
	}
	if got := RecoveryAfter(series, 0, 0, 10); got != -1 {
		t.Fatalf("zero width must return -1, got %s", got)
	}
	if got := RecoveryAfter(series, w, 0, 0); got != -1 {
		t.Fatalf("zero floor must return -1, got %s", got)
	}
}

// TestEvaluateReport exercises the pass and fail paths of each invariant
// and the rendered report's stability.
func TestEvaluateReport(t *testing.T) {
	inv := Invariants{
		RequireConsistent: true,
		MinCommitted:      100,
		MinViewChanges:    1,
		RecoveryFloor:     10,
		RecoverBy:         300 * time.Millisecond,
	}
	good := RunStats{
		Committed:   150,
		ViewChanges: 2,
		Series:      []int{50, 0, 50, 50},
		BucketWidth: 100 * time.Millisecond,
		FaultEnd:    150 * time.Millisecond,
	}
	if rep := Evaluate("x", inv, good); !rep.OK() {
		t.Fatalf("want all checks ok:\n%s", rep.Render())
	}
	bad := good
	bad.Committed = 10
	bad.ViewChanges = 0
	bad.Series = []int{50, 0, 0, 0}
	rep := Evaluate("x", inv, bad)
	if rep.OK() {
		t.Fatalf("want failures:\n%s", rep.Render())
	}
	r := rep.Render()
	for _, want := range []string{"progress     FAIL", "view_changes FAIL", "recovery     FAIL", "consistency  ok"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
	// A recovery bucket past the deadline fails even though the floor is
	// eventually reached.
	late := good
	late.Series = []int{50, 0, 0, 0, 50}
	if rep := Evaluate("x", inv, late); rep.OK() {
		t.Fatalf("recovery past deadline must fail:\n%s", rep.Render())
	}
	// Zero-valued invariants are skipped entirely.
	if rep := Evaluate("x", Invariants{}, bad); len(rep.Checks) != 0 || !rep.OK() {
		t.Fatalf("zero invariants must produce an empty passing report, got:\n%s", rep.Render())
	}
}
