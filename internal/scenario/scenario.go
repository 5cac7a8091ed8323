// Package scenario is the declarative experiment layer: one JSON-round-
// trippable Scenario spec describes a complete simulated deployment —
// framework, consensus protocol, topology, cost model, workload, attack,
// offered load, and seed — and scenario.Run drives it through the shared,
// framework-agnostic Harness lifecycle. Purpose-built blockchain simulators
// get their reach from specs like this one: new frameworks plug in by
// implementing Harness, new experiments by writing data instead of Go glue.
//
// Zero values mean "use the documented default" (the paper's evaluation
// setting A); a Scenario{} with only Framework and Load set is a complete,
// valid experiment. Validate reports configuration errors instead of
// panicking, and every registry experiment in internal/bench is expressed
// as a list of Scenario values (see `bidl bench -dump-scenarios`).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/cost"
	"github.com/bidl-framework/bidl/internal/types"
)

// Framework names accepted by Scenario.Framework.
const (
	FrameworkBIDL        = "bidl"
	FrameworkHLF         = "hlf"
	FrameworkFastFabric  = "fastfabric"
	FrameworkStreamChain = "streamchain"
)

// Duration is the spec's human-readable duration ("150ms" in JSON).
type Duration = types.Duration

// Scenario is one complete declarative experiment: which framework to
// simulate, on what cluster and network, under what workload and offered
// load, with which (optional) adversary. The zero value of every field
// selects the documented default, which mirrors the paper's evaluation
// setting A (see DESIGN.md §9 for the defaults table).
type Scenario struct {
	// Name labels the scenario in logs and dumps; it does not affect the
	// simulation.
	Name string `json:"name,omitempty"`
	// Framework selects the simulated system: "bidl" (default), or the
	// baselines "hlf", "fastfabric", "streamchain".
	Framework string `json:"framework,omitempty"`
	// Protocol overrides the framework's consensus protocol. BIDL accepts
	// bft-smart (default), hotstuff, zyzzyva, sbft; the baselines accept
	// bft-smart and raft (default per variant).
	Protocol string `json:"protocol,omitempty"`
	// Seed drives all simulation and workload randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SimWorkers requests conservative parallel discrete-event execution
	// with this many worker goroutines (zero or one means the serial
	// engine). A parallel run is byte-identical to a serial run at the same
	// seed, so this is purely a wall-clock knob. Scenarios with an attack
	// armed always run serially: adversaries mutate cluster state mid-run.
	SimWorkers int `json:"sim_workers,omitempty"`
	// Shards splits the deployment into this many independently sequenced
	// BIDL channels over one shared simulation (scenario.ShardedHarness,
	// DESIGN.md §14). Each shard is a full copy of the Nodes spec; the
	// keyspace partitions by ledger.KeyShard and two-shard payments commit
	// through 2PC. Zero or one selects the single-channel engine — a
	// `shards: 1` run is byte-identical to one with the field absent.
	// BIDL only.
	Shards int `json:"shards,omitempty"`
	// CrossShardRatio is the probability a generated transfer deliberately
	// straddles two shards (the 2PC path). Requires Shards > 1.
	CrossShardRatio float64 `json:"cross_shard_ratio,omitempty"`

	// Nodes sizes the cluster.
	Nodes NodesSpec `json:"nodes,omitempty"`
	// Topology shapes the simulated datacenter network.
	Topology TopologySpec `json:"topology,omitempty"`
	// Tuning adjusts protocol timeouts, batching, and ablation switches.
	Tuning TuningSpec `json:"tuning,omitempty"`
	// Costs overrides the virtual CPU cost model; nil selects the paper's
	// calibrated model (cost.Default). Durations are JSON nanoseconds.
	Costs *cost.Model `json:"costs,omitempty"`
	// Workload parameterizes the SmallBank transaction mix.
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Load is the offered load profile — the only group with no usable
	// zero value: Window must be positive.
	Load LoadSpec `json:"load"`
	// Attack optionally arms one of the paper's adversaries. It is the
	// legacy surface for what is now a one-entry Faults schedule; new
	// specs should prefer Faults.
	Attack AttackSpec `json:"attack,omitempty"`
	// Faults is the declarative fault-injection schedule (see
	// chaos.Kinds or `bidl run -list-faults` for the taxonomy). Runs
	// with faults always use the serial simulation engine.
	Faults []FaultSpec `json:"faults"`
	// Anatomy requests a latency-anatomy breakdown (internal/trace/anatomy)
	// in the run's Result. When the caller supplies no tracer of its own, a
	// private one is created for the run; fault windows from the schedule
	// are annotated in the report automatically.
	Anatomy bool `json:"anatomy,omitempty"`
}

// NodesSpec sizes the simulated cluster. Zero fields mean setting A:
// 50 organizations with 1 node each, 4 consensus nodes tolerating 1 fault,
// in a single datacenter.
type NodesSpec struct {
	// Orgs is the number of organizations (default 50).
	Orgs int `json:"orgs,omitempty"`
	// PerOrg is the number of normal nodes (BIDL) or peers (baselines) per
	// organization (default 1).
	PerOrg int `json:"per_org,omitempty"`
	// Consensus is the number of consensus nodes / orderers (default 4).
	Consensus int `json:"consensus,omitempty"`
	// Faults is the tolerated number of Byzantine consensus nodes. Zero
	// with Consensus >= 4 derives (Consensus-1)/3.
	Faults int `json:"faults,omitempty"`
	// Datacenters spreads nodes round-robin over this many DCs (default 1).
	Datacenters int `json:"datacenters,omitempty"`
}

// TopologySpec shapes the network. Zero fields mean the paper's cluster:
// 0.2 ms intra-DC RTT, 20 ms inter-DC RTT, 40 Gbps NICs, no shared
// inter-DC cap, no jitter, no loss. Negative bandwidths mean "unlimited".
type TopologySpec struct {
	// IntraLatency is the one-way delay within a datacenter (default 100µs).
	IntraLatency Duration `json:"intra_latency,omitempty"`
	// InterLatency is the one-way delay between datacenters (default 10ms).
	InterLatency Duration `json:"inter_latency,omitempty"`
	// NICGbps is per-endpoint egress capacity in Gbps (default 40;
	// negative = unlimited).
	NICGbps float64 `json:"nic_gbps,omitempty"`
	// InterDCGbps caps the shared pipe per ordered DC pair in Gbps
	// (default 0 = unlimited; the Fig 9 knob).
	InterDCGbps float64 `json:"inter_dc_gbps,omitempty"`
	// Jitter adds uniform [0, Jitter) delay per message (default 0).
	Jitter Duration `json:"jitter,omitempty"`
	// LossRate drops each delivery independently with this probability
	// (default 0).
	LossRate float64 `json:"loss_rate,omitempty"`
}

// TuningSpec adjusts batching, timeouts, and the design-ablation switches.
// Zero durations and counts mean the framework's defaults (BIDL: 500-txn
// blocks, 10ms block timeout, 150ms view timeout; StreamChain: block size 1).
type TuningSpec struct {
	BlockSize     int      `json:"block_size,omitempty"`
	BlockTimeout  Duration `json:"block_timeout,omitempty"`
	ViewTimeout   Duration `json:"view_timeout,omitempty"`
	ClientTimeout Duration `json:"client_timeout,omitempty"`

	// Ablation switches (BIDL-only, all default off).
	DisableDenylist    bool `json:"disable_denylist,omitempty"`
	DisableMulticast   bool `json:"disable_multicast,omitempty"`
	ConsensusOnPayload bool `json:"consensus_on_payload,omitempty"`
	DisableSpeculation bool `json:"disable_speculation,omitempty"`
}

// WorkloadSpec parameterizes the SmallBank mix. Zero fields mean the
// paper's standard workload: 100 clients, 10000 accounts, 1% hot set,
// no contention, no non-determinism, ~1KB transactions.
type WorkloadSpec struct {
	Clients     int     `json:"clients,omitempty"`
	Accounts    int     `json:"accounts,omitempty"`
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// Contention is the probability a transfer touches a hot account.
	Contention float64 `json:"contention,omitempty"`
	// Nondet is the probability a transaction is non-deterministic.
	Nondet float64 `json:"nondet,omitempty"`
	// ZipfS, when > 1, draws non-hot-set accounts from a Zipf distribution
	// with skew exponent s (low account indices are popular). Zero keeps
	// the uniform draw; values in (0, 1] are invalid.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Settlement is the probability a transaction is a step of a
	// multi-step settlement flow (open → settle/cancel) instead of a
	// SmallBank transfer.
	Settlement float64 `json:"settlement,omitempty"`
	// InitialBalance seeds every account (default 1,000,000).
	InitialBalance int64 `json:"initial_balance,omitempty"`
	// Padding sizes transactions in bytes (default ~1KB).
	Padding uint32 `json:"padding,omitempty"`
	// Seed drives workload randomness; zero inherits the scenario seed.
	Seed int64 `json:"seed,omitempty"`
}

// Load shapes accepted by LoadSpec.Shape.
const (
	// ShapeConstant offers Rate txns/s uniformly (the default).
	ShapeConstant = "constant"
	// ShapeDiurnal modulates the rate sinusoidally around Rate:
	// rate(t) = Rate · (1 − Amplitude·cos(2πt/Period)), starting at the
	// trough. The mean over any whole period is exactly Rate.
	ShapeDiurnal = "diurnal"
	// ShapeBurst alternates BurstDuty·Period at BurstMultiplier×Rate with
	// an off-phase rate chosen so the mean over a period is exactly Rate.
	ShapeBurst = "burst"
)

// LoadSpec is the offered-load profile.
type LoadSpec struct {
	// Rate is the offered load in txns/s (the mean rate for shaped load).
	Rate float64 `json:"rate"`
	// Window is how long load is offered; the run then drains.
	Window Duration `json:"window"`
	// Warmup excludes the interval [0, Warmup) from measurements
	// (default Window/5).
	Warmup Duration `json:"warmup,omitempty"`
	// Drain extends the simulation past the load window so in-flight
	// transactions commit (default 500ms).
	Drain Duration `json:"drain,omitempty"`

	// Shape selects the load shape: "" or "constant", "diurnal", "burst".
	// Shapes are compiled to an analytic cumulative-arrivals function, so a
	// constant shape is byte-identical to the legacy fixed-rate schedule.
	Shape string `json:"load_shape,omitempty"`
	// ShapeAmplitude is the diurnal modulation depth in [0, 1]
	// (default 0.5).
	ShapeAmplitude float64 `json:"shape_amplitude,omitempty"`
	// ShapePeriod is the diurnal/burst period (default Window, i.e. one
	// full cycle per run).
	ShapePeriod Duration `json:"shape_period,omitempty"`
	// BurstMultiplier is the on-phase rate multiple (default 4). With duty
	// d and multiplier m, the off-phase runs at (1−m·d)/(1−d)×Rate, which
	// requires m·d < 1.
	BurstMultiplier float64 `json:"burst_multiplier,omitempty"`
	// BurstDuty is the fraction of each period spent bursting, in (0, 1)
	// (default 0.2).
	BurstDuty float64 `json:"burst_duty,omitempty"`

	// ClosedLoop switches from open-loop scheduling to closed-loop clients:
	// a controller tracks the cluster-wide outstanding-transaction count
	// and withholds load (with exponential back-off) while the window is
	// full. The offered rate still follows Rate and Shape — they become the
	// demand curve rather than the injection schedule. Closed-loop runs pin
	// the serial simulation engine (the controller reacts to mid-run
	// cluster state, which the partition discipline cannot order).
	ClosedLoop *ClosedLoopSpec `json:"closed_loop,omitempty"`
}

// ClosedLoopSpec parameterizes closed-loop client backpressure.
type ClosedLoopSpec struct {
	// MaxInFlight caps submitted-but-uncommitted transactions cluster-wide
	// (default 512).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// Backoff is the initial pause after finding the window full
	// (default 1ms); each consecutive full poll doubles it.
	Backoff Duration `json:"backoff,omitempty"`
	// MaxBackoff caps the exponential back-off (default 16ms).
	MaxBackoff Duration `json:"max_backoff,omitempty"`
}

// withShapeDefaults resolves the zero-value shape knobs to their
// documented defaults so Validate and the compiler agree on one reading.
func (l LoadSpec) withShapeDefaults() LoadSpec {
	if l.Shape == "" {
		l.Shape = ShapeConstant
	}
	if l.ShapeAmplitude == 0 {
		l.ShapeAmplitude = 0.5
	}
	if l.ShapePeriod == 0 {
		l.ShapePeriod = l.Window
	}
	if l.BurstMultiplier == 0 {
		l.BurstMultiplier = 4
	}
	if l.BurstDuty == 0 {
		l.BurstDuty = 0.2
	}
	if l.ClosedLoop != nil {
		cl := *l.ClosedLoop
		if cl.MaxInFlight == 0 {
			cl.MaxInFlight = 512
		}
		if cl.Backoff == 0 {
			cl.Backoff = Duration(time.Millisecond)
		}
		if cl.MaxBackoff == 0 {
			cl.MaxBackoff = Duration(16 * time.Millisecond)
		}
		l.ClosedLoop = &cl
	}
	return l
}

// Attack kinds accepted by AttackSpec.Kind.
const (
	AttackNone = "none"
	// AttackLeader turns the current leader malicious (Table 4 S2): BIDL's
	// leader sequencer emits garbage; a baseline's leader orderer proposes
	// invalid transactions.
	AttackLeader = "leader"
	// AttackBroadcaster arms the §6.2 malicious broadcaster (BIDL only).
	AttackBroadcaster = "broadcaster"
	// AttackSmart is a broadcaster that attacks only views led by the
	// leader observed at startup (the Fig 7 smart adversary; BIDL only).
	AttackSmart = "smart"
)

// AttackSpec optionally arms an adversary. The zero value is "no attack".
// It is kept as the legacy JSON key for a one-entry fault schedule
// (attackFault is its one translation); zero broadcaster knobs take the
// defaults of chaos.Fault.
type AttackSpec struct {
	// Kind is one of "", "none", "leader", "broadcaster", "smart".
	Kind string `json:"kind,omitempty"`
	// Start is the virtual time a broadcaster arms (leader attacks apply
	// at time zero regardless).
	Start Duration `json:"start,omitempty"`
	// Window is how many sequence numbers ahead of the observed frontier
	// each burst contests.
	Window int `json:"window,omitempty"`
	// Interval is the burst period.
	Interval Duration `json:"interval,omitempty"`
	// DetectLag models how long the adversary needs to notice a
	// leadership change.
	DetectLag Duration `json:"detect_lag,omitempty"`
	// MaliciousClients are the colluding client indices.
	MaliciousClients []int `json:"malicious_clients"`
}

// WithDefaults returns the scenario with its framework name normalized.
// All remaining defaulting happens at compile time (bidlConfig /
// fabricConfig / workloadConfig) so that specs stay minimal.
func (s Scenario) WithDefaults() Scenario {
	if s.Framework == "" {
		s.Framework = FrameworkBIDL
	}
	if s.Attack.Kind == AttackNone {
		s.Attack.Kind = ""
	}
	return s
}

// EffectiveSeed resolves the simulation seed (default 1).
func (s Scenario) EffectiveSeed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 1
}

// Parse decodes a user-authored scenario from JSON, rejecting unknown
// fields so typos surface as errors instead of silently selecting defaults.
func Parse(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parse: %w", err)
	}
	return s, nil
}

// Marshal renders the scenario as indented JSON.
func (s Scenario) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
