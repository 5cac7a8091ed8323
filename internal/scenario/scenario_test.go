package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/types"
)

// TestScenarioJSONRoundTrip is the codec property test: any Scenario value
// must survive marshal → unmarshal exactly. Duration's custom Generate
// keeps random durations in a range whose human-readable String() form
// re-parses losslessly.
func TestScenarioJSONRoundTrip(t *testing.T) {
	f := func(s Scenario) bool {
		s.SimWorkers = 0 // json:"-": no spec carries it
		data, err := json.Marshal(s)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		if !reflect.DeepEqual(s, back) {
			t.Logf("round-trip mismatch:\n in: %+v\nout: %+v\njson: %s", s, back, data)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalParseRoundTrip checks the user-facing entry points (indented
// Marshal, strict Parse) agree with each other.
func TestMarshalParseRoundTrip(t *testing.T) {
	s := Scenario{
		Name:      "example",
		Framework: FrameworkBIDL,
		Protocol:  "hotstuff",
		Seed:      42,
		Nodes:     NodesSpec{Orgs: 7, Consensus: 7, Faults: 2},
		Topology:  TopologySpec{InterDCGbps: 1.5, LossRate: 0.01},
		Workload:  WorkloadSpec{Contention: 0.2},
		Load: LoadSpec{Rate: 1000, Window: Duration(time.Second),
			Warmup: Duration(100 * time.Millisecond)},
		Attack: AttackSpec{Kind: AttackSmart, Start: Duration(200 * time.Millisecond)},
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", s, back)
	}
}

// TestParseRejectsUnknownFields guards the strict decoding contract: a typo
// in a user-authored spec must error, not silently select a default.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"framwork": "bidl", "load": {"rate": 10, "window": "1s"}}`))
	if err == nil || !strings.Contains(err.Error(), "framwork") {
		t.Fatalf("want unknown-field error naming the typo, got %v", err)
	}
}

// TestParseRejectsRemovedKeys: a value no spec varies is a constant in the
// code, not a spec key, so a spec naming one (as older specs could) is
// refused instead of silently ignored.
func TestParseRejectsRemovedKeys(t *testing.T) {
	const load = `"load": {"rate": 10, "window": "1s"`
	for _, tc := range []struct{ key, spec string }{
		{"sim_workers", `{` + load + `}, "sim_workers": 4}`},
		{"topology.intra_latency", `{` + load + `}, "topology": {"intra_latency": "1ms"}}`},
		{"topology.inter_latency", `{` + load + `}, "topology": {"inter_latency": "1ms"}}`},
		{"topology.nic_gbps", `{` + load + `}, "topology": {"nic_gbps": 10}}`},
		{"tuning.client_timeout", `{` + load + `}, "tuning": {"client_timeout": "1s"}}`},
		{"workload.hot_fraction", `{` + load + `}, "workload": {"hot_fraction": 0.1}}`},
		{"workload.initial_balance", `{` + load + `}, "workload": {"initial_balance": 5}}`},
		{"workload.padding", `{` + load + `}, "workload": {"padding": 512}}`},
		{"load.shape_amplitude", `{` + load + `, "shape_amplitude": 0.3}}`},
		{"load.shape_period", `{` + load + `, "shape_period": "100ms"}}`},
		{"load.closed_loop.backoff", `{` + load + `, "closed_loop": {"backoff": "2ms"}}}`},
		{"load.closed_loop.max_backoff", `{` + load + `, "closed_loop": {"max_backoff": "2ms"}}}`},
		{"attack.window", `{` + load + `}, "attack": {"kind": "smart", "window": 8}}`},
		{"attack.interval", `{` + load + `}, "attack": {"kind": "smart", "interval": "2ms"}}`},
		{"attack.detect_lag", `{` + load + `}, "attack": {"kind": "smart", "detect_lag": "2ms"}}`},
		{"attack.malicious_clients", `{` + load + `}, "attack": {"kind": "smart", "malicious_clients": [1]}}`},
		{"faults.window", `{` + load + `}, "faults": [{"kind": "broadcaster", "window": 8}]}`},
		{"faults.interval", `{` + load + `}, "faults": [{"kind": "broadcaster", "interval": "2ms"}]}`},
		{"faults.detect_lag", `{` + load + `}, "faults": [{"kind": "broadcaster", "detect_lag": "2ms"}]}`},
		{"faults.malicious_clients", `{` + load + `}, "faults": [{"kind": "broadcaster", "malicious_clients": [1]}]}`},
		{"anatomy", `{` + load + `}, "anatomy": true}`},
	} {
		t.Run(tc.key, func(t *testing.T) {
			name := tc.key[strings.LastIndex(tc.key, ".")+1:]
			_, err := Parse([]byte(tc.spec))
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+name+`"`) {
				t.Fatalf("want unknown-field error naming %q, got %v", name, err)
			}
		})
	}
}

// TestDurationForms checks both accepted JSON encodings.
func TestDurationForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"150ms"`), &d); err != nil || d.D() != 150*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1500000`), &d); err != nil || d.D() != 1500*time.Microsecond {
		t.Fatalf("number form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Fatal("want error for malformed duration")
	}
	data, err := json.Marshal(Duration(10 * time.Millisecond))
	if err != nil || string(data) != `"10ms"` {
		t.Fatalf("marshal: %s %v", data, err)
	}
}

// valid returns a minimal valid scenario to mutate in rejection cases.
func valid() Scenario {
	return Scenario{Load: LoadSpec{Rate: 100, Window: Duration(time.Second)}}
}

// TestValidate covers each rejection class, including configuration errors
// surfaced from the compiled framework configs (core.Config.Validate /
// fabric.Config.Validate).
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string // substring of the expected error; "" = valid
	}{
		{"minimal-default", func(s *Scenario) {}, ""},
		{"fabric-variant", func(s *Scenario) { s.Framework = FrameworkStreamChain }, ""},
		{"setting-b", func(s *Scenario) { s.Nodes = NodesSpec{Orgs: 7, Consensus: 7, Faults: 2} }, ""},
		{"unknown-framework", func(s *Scenario) { s.Framework = "ethereum" }, "unknown framework"},
		{"negative-nodes", func(s *Scenario) { s.Nodes.Orgs = -1 }, "node counts"},
		{"sim-workers", func(s *Scenario) { s.SimWorkers = 4 }, "every run is serial"},
		{"zero-window", func(s *Scenario) { s.Load.Window = 0 }, "load.window"},
		{"negative-rate", func(s *Scenario) { s.Load.Rate = -1 }, "load.rate"},
		{"negative-warmup", func(s *Scenario) { s.Load.Warmup = -1 }, "load.warmup"},
		{"contention-range", func(s *Scenario) { s.Workload.Contention = 1.5 }, "workload.contention"},
		{"nondet-range", func(s *Scenario) { s.Workload.Nondet = -0.1 }, "workload.nondet"},
		{"unknown-attack", func(s *Scenario) { s.Attack.Kind = "dos" }, "unknown attack"},
		{"broadcaster-on-fabric", func(s *Scenario) {
			s.Framework = FrameworkHLF
			s.Attack.Kind = AttackBroadcaster
		}, "requires the bidl framework"},
		{"negative-attack-start", func(s *Scenario) {
			s.Attack.Kind = AttackBroadcaster
			s.Attack.Start = -1
		}, "attack parameters"},
		{"bad-bidl-protocol", func(s *Scenario) { s.Protocol = "tendermint" }, "unknown protocol"},
		{"bad-fabric-protocol", func(s *Scenario) {
			s.Framework = FrameworkFastFabric
			s.Protocol = "hotstuff"
		}, "unknown protocol"},
		{"infeasible-quorum", func(s *Scenario) { s.Nodes = NodesSpec{Consensus: 5, Faults: 2} }, "tolerate"},
		{"loss-rate-range", func(s *Scenario) { s.Topology.LossRate = 1 }, "LossRate"},
		{"sharded-valid", func(s *Scenario) { s.Shards = 4; s.CrossShardRatio = 0.2 }, ""},
		{"shards-one-valid", func(s *Scenario) { s.Shards = 1 }, ""},
		{"sharded-fault-valid", func(s *Scenario) {
			s.Shards = 2
			s.Faults = []FaultSpec{{Kind: "crash", Shard: 1}}
		}, ""},
		{"negative-shards", func(s *Scenario) { s.Shards = -1 }, "shards must be >= 0"},
		{"cross-ratio-needs-shards", func(s *Scenario) { s.CrossShardRatio = 0.2 }, "requires shards > 1"},
		{"cross-ratio-with-one-shard", func(s *Scenario) { s.Shards = 1; s.CrossShardRatio = 0.2 }, "requires shards > 1"},
		{"cross-ratio-range", func(s *Scenario) { s.Shards = 2; s.CrossShardRatio = 1.5 }, "cross_shard_ratio"},
		{"sharded-fabric", func(s *Scenario) { s.Framework = FrameworkHLF; s.Shards = 2 }, "requires the bidl framework"},
		{"fault-shard-out-of-range", func(s *Scenario) {
			s.Shards = 2
			s.Faults = []FaultSpec{{Kind: "crash", Shard: 2}}
		}, "shard 2 out of range"},
		{"fault-shard-on-unsharded", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: "crash", Shard: 1}}
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(&s)
			err := s.Validate()
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

// fakeHarness satisfies Harness without running a simulation. At-scheduled
// events queue up and fire in order from Run, with inFlight scripted per
// step, so the closed-loop controller is testable without a cluster.
type fakeHarness struct {
	calls     []string
	submitted []int // batch sizes passed to SubmitAt
	inFlight  []int // scripted InFlight() results, consumed per call
	timers    []fakeTimer
	fired     int
}

type fakeTimer struct {
	at time.Duration
	fn func()
}

func (f *fakeHarness) RegisterClients([]crypto.Identity) { f.calls = append(f.calls, "register") }
func (f *fakeHarness) Prepopulate(func(*ledger.State))   { f.calls = append(f.calls, "prepop") }
func (f *fakeHarness) SubmitAt(_ time.Duration, txns ...*types.Transaction) {
	f.calls = append(f.calls, "submit")
	f.submitted = append(f.submitted, len(txns))
}
func (f *fakeHarness) At(t time.Duration, fn func()) {
	f.timers = append(f.timers, fakeTimer{at: t, fn: fn})
}
func (f *fakeHarness) InFlight() int {
	if len(f.inFlight) == 0 {
		return 0
	}
	n := f.inFlight[0]
	if len(f.inFlight) > 1 { // hold the last scripted value
		f.inFlight = f.inFlight[1:]
	}
	return n
}
func (f *fakeHarness) Run(time.Duration) {
	f.calls = append(f.calls, "run")
	for f.fired < len(f.timers) {
		t := f.timers[f.fired]
		f.fired++
		t.fn()
	}
}
func (f *fakeHarness) LeaderIndex() int              { return 0 }
func (f *fakeHarness) CheckSafety() error            { return nil }
func (f *fakeHarness) Metrics() *metrics.Collector   { return nil }
func (f *fakeHarness) IdentityScheme() crypto.Scheme { return nil }
func (f *fakeHarness) VirtualEvents() uint64         { return 0 }

// TestRunEndToEnd exercises the whole declarative path on a small BIDL
// cluster: spec → compile → drive → result.
func TestRunEndToEnd(t *testing.T) {
	sp := Scenario{
		Name:     "smoke",
		Nodes:    NodesSpec{Orgs: 4},
		Workload: WorkloadSpec{Clients: 8, Accounts: 400},
		Load:     LoadSpec{Rate: 2000, Window: Duration(100 * time.Millisecond)},
	}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted <= 0 {
		t.Fatalf("submitted %d transactions", res.Submitted)
	}
	if res.SafetyErr != nil {
		t.Fatalf("safety: %v", res.SafetyErr)
	}
	if res.Events == 0 {
		t.Fatal("no virtual events recorded")
	}
	if res.Throughput <= 0 || res.AvgLatency <= 0 {
		t.Fatalf("empty metrics: %+v", res)
	}
}

// TestRunRejectsInvalidSpec checks Run surfaces Validate errors instead of
// constructing a cluster from a bad spec.
func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(Scenario{Framework: "ethereum"}); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
}
