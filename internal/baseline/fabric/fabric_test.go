package fabric

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/workload"
)

func smallConfig(v Variant) Config {
	cfg := DefaultConfig(v)
	cfg.NumOrgs = 8
	cfg.BlockSize = 50
	cfg.BlockTimeout = 5 * time.Millisecond
	if v == StreamChain {
		cfg.BlockSize = 1
		cfg.BlockTimeout = 500 * time.Microsecond
	}
	return cfg
}

func buildCluster(t testing.TB, cfg Config, wcfg workload.Config) (*Cluster, *workload.Generator) {
	t.Helper()
	c := NewCluster(cfg)
	wcfg.NumOrgs = cfg.NumOrgs
	gen := workload.NewGenerator(wcfg, c.Scheme)
	ids := make([]crypto.Identity, wcfg.NumClients)
	for i := range ids {
		ids[i] = gen.Client(i)
	}
	c.RegisterClients(ids)
	c.Prepopulate(gen.Prepopulate)
	return c, gen
}

func defaultWorkload() workload.Config {
	w := workload.DefaultConfig(8)
	w.NumClients = 20
	w.Accounts = 800
	return w
}

func TestEndToEndAllVariants(t *testing.T) {
	for _, v := range []Variant{HLF, FastFabric, StreamChain} {
		t.Run(v.String(), func(t *testing.T) {
			c, gen := buildCluster(t, smallConfig(v), defaultWorkload())
			const n = 150
			for i, tx := range gen.Batch(n) {
				c.SubmitAt(time.Duration(i)*100*time.Microsecond, tx)
			}
			c.Run(3 * time.Second)
			if got := c.Collector.NumCommitted(); got != n {
				t.Fatalf("%s committed %d of %d", v, got, n)
			}
			if err := c.CheckSafety(); err != nil {
				t.Fatal(err)
			}
			checkReplay(t, c, gen)
		})
	}
}

func TestContentionCausesMVCCAborts(t *testing.T) {
	// §6.3: FastFabric endorses contending transactions in parallel and
	// most of them abort in validation. Force contention with a tiny hot
	// set and concurrent submission.
	w := defaultWorkload()
	w.ContentionRatio = 0.5
	c, gen := buildCluster(t, smallConfig(FastFabric), w)
	txs := gen.Batch(300)
	for i, tx := range txs {
		c.SubmitAt(time.Duration(i)*20*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 300 {
		t.Fatalf("committed %d of 300", got)
	}
	if c.Collector.MVCCAborts == 0 {
		t.Fatal("expected MVCC aborts under 50% contention")
	}
	if rate := c.Collector.AbortRate(); rate < 0.05 {
		t.Fatalf("abort rate %.3f; expected substantial contention aborts", rate)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, c, gen)
}

func TestNoContentionNoAborts(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(FastFabric), defaultWorkload())
	// Spread submissions out so endorsements see committed state.
	for i, tx := range gen.Batch(100) {
		c.SubmitAt(time.Duration(i)*3*time.Millisecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 100 {
		t.Fatalf("committed %d of 100", got)
	}
	if ab := c.Collector.NumAborted(); ab > 2 {
		t.Fatalf("%d aborts on an uncontended spread-out workload", ab)
	}
}

func TestNondeterminismEarlyAborts(t *testing.T) {
	// §6.3: in FastFabric, non-deterministic transactions are
	// early-aborted after endorsement (mismatching endorsement digests)
	// — but only multi-org transactions can be caught at endorsement.
	w := defaultWorkload()
	w.NondetRatio = 0.3
	c, gen := buildCluster(t, smallConfig(FastFabric), w)
	nNondet := 0
	txs := gen.Batch(200)
	for i, tx := range txs {
		if tx.Fn == "create_random" {
			nNondet++
		}
		c.SubmitAt(time.Duration(i)*100*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 200 {
		t.Fatalf("committed %d of 200", got)
	}
	// Single-org nondet creations endorse at one org only — no digest
	// comparison possible, so they commit with that org's value. The
	// effective-throughput impact in Fig 8 comes from multi-org nondet
	// transactions; our generator emits single-org ones, so just check
	// determinism of the overall state here.
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
	_ = nNondet
}

func TestStreamChainLatencyBeatsHLF(t *testing.T) {
	run := func(v Variant) time.Duration {
		c, gen := buildCluster(t, smallConfig(v), defaultWorkload())
		for i, tx := range gen.Batch(50) {
			c.SubmitAt(time.Duration(i)*time.Millisecond, tx)
		}
		c.Run(3 * time.Second)
		return c.Collector.AvgLatency(0, 3*time.Second)
	}
	sc := run(StreamChain)
	hlf := run(HLF)
	if sc >= hlf {
		t.Fatalf("StreamChain latency %v not below HLF %v", sc, hlf)
	}
	if sc > 20*time.Millisecond {
		t.Fatalf("StreamChain latency %v; expected a few ms", sc)
	}
}

func TestMaliciousOrdererHLFRecovers(t *testing.T) {
	// Table 4 S2: an HLF ordering leader proposing garbage is detected by
	// the other consensus nodes (they hold the payloads) and replaced.
	cfg := smallConfig(HLF)
	cfg.ViewTimeout = 50 * time.Millisecond
	c, gen := buildCluster(t, cfg, defaultWorkload())
	evil := c.LeaderIndex()
	c.Orderers[evil].ProposeGarbage = true
	const n = 150
	for i, tx := range gen.Batch(n) {
		c.SubmitAt(time.Duration(i)*100*time.Microsecond, tx)
	}
	c.Run(5 * time.Second)
	if c.Collector.ViewChanges == 0 {
		t.Fatal("garbage proposals never triggered a view change")
	}
	if c.LeaderIndex() == evil {
		t.Fatal("malicious leader still in charge")
	}
	// Clients whose envelopes were eaten by the evil leader re-submit is
	// not modeled for fabric; what matters is the framework recovers and
	// commits transactions submitted after the change.
	extra := gen.Batch(50)
	at := c.Sim.Now()
	for i, tx := range extra {
		c.SubmitAt(at+time.Duration(i)*100*time.Microsecond, tx)
	}
	c.Run(at + 3*time.Second)
	committedExtra := 0
	for _, tx := range extra {
		if c.Collector.IsCommitted(tx.ID()) {
			committedExtra++
		}
	}
	if committedExtra < 45 {
		t.Fatalf("only %d of 50 post-recovery transactions committed", committedExtra)
	}
	checkReplay(t, c, gen)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, time.Duration) {
		c, gen := buildCluster(t, smallConfig(FastFabric), defaultWorkload())
		for i, tx := range gen.Batch(100) {
			c.SubmitAt(time.Duration(i)*100*time.Microsecond, tx)
		}
		c.Run(2 * time.Second)
		return c.Collector.NumCommitted(), c.Collector.AvgLatency(0, 2*time.Second)
	}
	n1, l1 := run()
	n2, l2 := run()
	if n1 != n2 || l1 != l2 {
		t.Fatalf("runs diverge: (%d,%v) vs (%d,%v)", n1, l1, n2, l2)
	}
}
