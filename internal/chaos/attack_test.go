package chaos

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// broadcasterAt is the schedule entry that arms the always-on broadcaster at
// at, every knob at its default.
func broadcasterAt(at time.Duration) Fault {
	return Fault{Kind: KindBroadcaster, At: types.Duration(at)}
}

func build(t testing.TB, cfg core.Config) (*core.Cluster, *workload.Generator) {
	t.Helper()
	c := core.NewCluster(cfg)
	w := workload.DefaultConfig(cfg.NumOrgs)
	w.NumClients = 20
	w.Accounts = 800
	gen := workload.NewGenerator(w, c.Scheme)
	ids := make([]crypto.Identity, w.NumClients)
	for i := range ids {
		ids[i] = gen.Client(i)
	}
	c.RegisterClients(ids)
	c.Prepopulate(gen.Prepopulate)
	return c, gen
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NumOrgs = 8
	cfg.BlockSize = 50
	cfg.BlockTimeout = 5 * time.Millisecond
	cfg.ViewTimeout = 80 * time.Millisecond
	return cfg
}

// load submits n transactions at the given per-txn interval starting at t0.
func load(c *core.Cluster, gen *workload.Generator, t0 time.Duration, n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		c.SubmitAt(t0+time.Duration(i)*gap, gen.Next())
	}
}

func TestMaliciousLeaderReplaced(t *testing.T) {
	cfg := testConfig()
	c, gen := build(t, cfg)
	evil := c.LeaderIndex()
	c.SetLeaderEvil(true)
	load(c, gen, 0, 400, 100*time.Microsecond)
	c.Run(4 * time.Second)
	if c.Collector.ViewChanges == 0 {
		t.Fatal("garbage-proposing leader never triggered a view change")
	}
	if c.LeaderIndex() == evil {
		t.Fatal("malicious leader still leading")
	}
	// Clients retransmit dropped transactions; most must commit once a
	// correct leader takes over.
	if got := c.Collector.NumCommitted(); got < 360 {
		t.Fatalf("committed %d of 400 after leader replacement", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcasterCausesConflictsAndReexecution(t *testing.T) {
	cfg := testConfig()
	cfg.DisableDenylist = true // observe the raw damage
	c, gen := build(t, cfg)
	b := NewBroadcaster(c, gen, broadcasterAt(50*time.Millisecond))
	load(c, gen, 0, 1500, time.Millisecond) // 1k tps for 1.5s, overlapping the attack
	c.Run(4 * time.Second)
	if b.Bursts == 0 {
		t.Fatal("broadcaster never fired")
	}
	if c.Collector.Conflicts == 0 {
		t.Fatal("no sequence-space conflicts recorded")
	}
	if c.Collector.Reexecuted == 0 {
		t.Fatal("no re-executions despite crafted speculation")
	}
	// Liveness holds: legitimate transactions still commit (§5.3).
	if got := c.Collector.NumCommitted(); got < 1400 {
		t.Fatalf("committed %d of 1500 under attack", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestDenylistCatchesBroadcaster(t *testing.T) {
	cfg := testConfig()
	c, gen := build(t, cfg)
	b := NewBroadcaster(c, gen, broadcasterAt(50*time.Millisecond))
	load(c, gen, 0, 2000, time.Millisecond)
	c.Run(4 * time.Second)
	mal := b.MaliciousIdentities()[0]
	denied := 0
	for _, cn := range c.ConsNodes {
		if cn.Denylist()[mal] {
			denied++
		}
	}
	if denied < 3 {
		t.Fatalf("malicious client denied at %d consensus nodes, want >= 2f+1", denied)
	}
	// Normal nodes must have learned the denylist too.
	nnDenied := 0
	for _, org := range c.Orgs {
		for _, nn := range org {
			if nn.Denied(mal) {
				nnDenied++
			}
		}
	}
	if nnDenied < cfg.NumOrgs/2 {
		t.Fatalf("only %d normal nodes denied the client", nnDenied)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestDenylistNeverAccusesCorrectClients(t *testing.T) {
	// Under the triangle-inequality network the broadcaster only gets its
	// own colluding client denied; correct clients keep speculation.
	cfg := testConfig()
	c, gen := build(t, cfg)
	b := NewBroadcaster(c, gen, broadcasterAt(50*time.Millisecond))
	load(c, gen, 0, 2000, time.Millisecond)
	c.Run(4 * time.Second)
	mal := b.MaliciousIdentities()[0]
	for _, cn := range c.ConsNodes {
		for cl := range cn.Denylist() {
			if cl != mal {
				t.Fatalf("correct client %s denylisted (false positive)", cl)
			}
		}
	}
}

func TestThroughputRecoversAfterDenylist(t *testing.T) {
	// Fig 7 essence: after the denylist catches the malicious client,
	// throughput returns to the attack-free level even though the
	// adversary keeps broadcasting.
	cfg := testConfig()
	c, gen := build(t, cfg)
	b := NewBroadcaster(c, gen, broadcasterAt(200*time.Millisecond))
	// Steady 2k tps load for 4 seconds.
	const total = 4 * 2000
	for i := 0; i < total; i += 4 {
		c.SubmitAt(time.Duration(i)*500*time.Microsecond, gen.Batch(4)...)
	}
	c.Run(5 * time.Second)
	mal := b.MaliciousIdentities()[0]
	deniedSomewhere := false
	for _, cn := range c.ConsNodes {
		if cn.Denylist()[mal] {
			deniedSomewhere = true
		}
	}
	if !deniedSomewhere {
		t.Fatal("denylist never engaged")
	}
	before := c.Collector.EffectiveThroughput(0, 200*time.Millisecond)
	after := c.Collector.EffectiveThroughput(3500*time.Millisecond, 4*time.Second)
	if after < before*0.7 {
		t.Fatalf("throughput after denylist %.0f tps; pre-attack %.0f tps — no recovery", after, before)
	}
}

func TestSmartAdversaryStillDenied(t *testing.T) {
	// Fig 7: attacking only in one correct node's views does not escape
	// the denylist, thanks to proactive view changes and unpredictable
	// rotation.
	cfg := testConfig()
	c, gen := build(t, cfg)
	b := NewBroadcaster(c, gen, Fault{Kind: KindSmart, At: types.Duration(100 * time.Millisecond)})
	const total = 6 * 2000
	for i := 0; i < total; i += 4 {
		c.SubmitAt(time.Duration(i)*500*time.Microsecond, gen.Batch(4)...)
	}
	c.Run(8 * time.Second)
	mal := b.MaliciousIdentities()[0]
	denied := 0
	for _, cn := range c.ConsNodes {
		if cn.Denylist()[mal] {
			denied++
		}
	}
	if denied < 3 {
		t.Fatalf("smart adversary's client denied at only %d consensus nodes", denied)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}
