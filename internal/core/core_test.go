package core

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/workload"
)

// smallConfig builds a quick 4-CN / 8-org cluster for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumOrgs = 8
	cfg.BlockSize = 50
	cfg.BlockTimeout = 5 * time.Millisecond
	return cfg
}

// buildCluster wires a cluster with a workload generator.
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

func TestEndToEndCommit(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	const n = 200
	txns := gen.Batch(n)
	for i, tx := range txns {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(2 * time.Second)
	if got := c.Collector.NumCommitted(); got != n {
		t.Fatalf("committed %d of %d transactions", got, n)
	}
	if ab := c.Collector.NumAborted(); ab != 0 {
		t.Fatalf("%d aborts in a fault-free deterministic run", ab)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculationSucceedsFaultFree(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	for i, tx := range gen.Batch(300) {
		c.SubmitAt(time.Duration(i)*30*time.Microsecond, tx)
	}
	c.Run(2 * time.Second)
	if c.Collector.NumCommitted() != 300 {
		t.Fatalf("committed %d of 300", c.Collector.NumCommitted())
	}
	// Nearly everything should commit via the speculative fast path; the
	// first block after genesis may re-execute due to the bootstrap gap.
	if rate := c.Collector.SpecSuccessRate(); rate < 0.90 {
		t.Fatalf("speculation success rate %.2f, want >= 0.90", rate)
	}
	if c.Collector.Reexecuted > 40 {
		t.Fatalf("%d re-executions in fault-free run", c.Collector.Reexecuted)
	}
}

func TestLatencyIsMilliseconds(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	for i, tx := range gen.Batch(200) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(2 * time.Second)
	avg := c.Collector.AvgLatency(0, 2*time.Second)
	if avg <= 0 || avg > 100*time.Millisecond {
		t.Fatalf("average latency %v; expected low tens of ms", avg)
	}
}

func TestContendedWorkloadZeroAborts(t *testing.T) {
	// §6.3: BIDL eliminates contention aborts by executing in sequence
	// order.
	w := defaultWorkload()
	w.ContentionRatio = 0.5
	c, gen := buildCluster(t, smallConfig(), w)
	for i, tx := range gen.Batch(400) {
		c.SubmitAt(time.Duration(i)*30*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 400 {
		t.Fatalf("committed %d of 400 under contention", got)
	}
	if ab := c.Collector.NumAborted(); ab != 0 {
		t.Fatalf("%d aborts under contention; BIDL should have zero", ab)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestNondeterministicTxnsAbortButStateConsistent(t *testing.T) {
	w := defaultWorkload()
	w.NondetRatio = 0.2
	cfg := smallConfig()
	cfg.PerOrg = 2 // intra-org state comparison is meaningful
	c, gen := buildCluster(t, cfg, w)
	for i, tx := range gen.Batch(300) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	if got := c.Collector.NumCommitted(); got != 300 {
		t.Fatalf("committed %d of 300", got)
	}
	if c.Collector.NumAborted() == 0 {
		t.Fatal("expected non-deterministic transactions to abort")
	}
	// Aborts should be roughly the nondet share; deterministic transfers
	// must not abort. Some cascading aborts are possible.
	if rate := c.Collector.AbortRate(); rate < 0.10 || rate > 0.40 {
		t.Fatalf("abort rate %.2f, want ≈ nondet ratio 0.2", rate)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestPacketLossRecovery(t *testing.T) {
	cfg := smallConfig()
	cfg.Topology.LossRate = 0.02
	c, gen := buildCluster(t, cfg, defaultWorkload())
	for i, tx := range gen.Batch(200) {
		c.SubmitAt(time.Duration(i)*50*time.Microsecond, tx)
	}
	c.Run(4 * time.Second)
	if got := c.Collector.NumCommitted(); got < 195 {
		t.Fatalf("committed %d of 200 under 2%% loss", got)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, time.Duration, uint64) {
		c, gen := buildCluster(t, smallConfig(), defaultWorkload())
		for i, tx := range gen.Batch(150) {
			c.SubmitAt(time.Duration(i)*60*time.Microsecond, tx)
		}
		c.Run(time.Second)
		return c.Collector.NumCommitted(), c.Collector.AvgLatency(0, time.Second), c.Sim.Events()
	}
	n1, l1, e1 := run()
	n2, l2, e2 := run()
	if n1 != n2 || l1 != l2 || e1 != e2 {
		t.Fatalf("runs diverge: (%d,%v,%d) vs (%d,%v,%d)", n1, l1, e1, n2, l2, e2)
	}
}

func TestMoneyConservedAcrossCluster(t *testing.T) {
	w := defaultWorkload()
	w.ContentionRatio = 0.3
	c, gen := buildCluster(t, smallConfig(), w)
	for i, tx := range gen.Batch(300) {
		c.SubmitAt(time.Duration(i)*40*time.Microsecond, tx)
	}
	c.Run(3 * time.Second)
	// Each account lives with its org's normal node; checking balances
	// summed over owning orgs must equal the initial total.
	total := int64(0)
	for o, org := range c.Orgs {
		nn := org[0]
		for i := 0; i < w.Accounts; i++ {
			if i%c.Cfg.NumOrgs != o {
				continue
			}
			raw, _, ok := nn.base.Get("sb:chk:acct-" + itoa(i))
			if !ok {
				t.Fatalf("account %d missing at org %d", i, o)
			}
			total += parseI64(raw)
		}
	}
	want := int64(w.Accounts) * w.InitialBalance
	if total != want {
		t.Fatalf("total checking %d, want %d (money not conserved)", total, want)
	}
}

func itoa(i int) string {
	return string([]byte(timeFormat(i)))
}

func timeFormat(i int) []byte {
	if i == 0 {
		return []byte{'0'}
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return b
}

func parseI64(b []byte) int64 {
	var v int64
	neg := false
	for i, c := range b {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		return -v
	}
	return v
}

func TestTimelineShowsSteadyThroughput(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	// Offered load: 10k txns/s for 1 second.
	for i := 0; i < 10000; i += 10 {
		c.SubmitAt(time.Duration(i)*100*time.Microsecond, gen.Batch(10)...)
	}
	c.Run(1500 * time.Millisecond)
	if got := c.Collector.NumCommitted(); got < 9500 {
		t.Fatalf("committed %d of 10000 at 10k tps", got)
	}
	buckets := c.Collector.Timeline(100*time.Millisecond, time.Second)
	// Steady state: middle buckets near 10k tps.
	for i := 3; i < 9; i++ {
		if buckets[i] < 5000 {
			t.Fatalf("bucket %d throughput %.0f tps; pipeline stalled", i, buckets[i])
		}
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}
