package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// shardedFixture builds a 2-shard harness with a small per-shard cluster and
// a registered workload client set.
func shardedFixture(t testing.TB, shards int) (*ShardedHarness, *workload.Generator) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.NumOrgs = 4
	cfg.BlockSize = 50
	cfg.BlockTimeout = 5 * time.Millisecond
	cfg.Seed = 7
	h := NewShardedHarness(shards, cfg)

	w := workload.DefaultConfig(cfg.NumOrgs)
	w.NumClients = 8
	w.Accounts = 400
	gen := workload.NewGenerator(w, h.IdentityScheme())
	ids := make([]crypto.Identity, w.NumClients)
	for i := range ids {
		ids[i] = gen.Client(i)
	}
	h.RegisterClients(ids)
	h.Prepopulate(gen.Prepopulate)
	return h, gen
}

// payTx hand-crafts a signed send_payment between account indices.
func payTx(t testing.TB, h *ShardedHarness, client crypto.Identity, nonce uint64, src, dst int, amt int) *types.Transaction {
	t.Helper()
	org := func(i int) string { return "org" + strconv.Itoa(i%4) }
	tx := &types.Transaction{
		Client:   client,
		Nonce:    nonce,
		Contract: "smallbank",
		Fn:       "send_payment",
		Args: [][]byte{
			[]byte("acct-" + strconv.Itoa(src)),
			[]byte("acct-" + strconv.Itoa(dst)),
			[]byte(strconv.Itoa(amt)),
		},
		Orgs: []string{org(src), org(dst)},
	}
	if err := tx.Sign(h.IdentityScheme()); err != nil {
		t.Fatal(err)
	}
	return tx
}

// accountPair finds the skip-th (src, dst) pair with distinct orgs whose
// shards match `cross`. Distinct skip values yield disjoint account sets, so
// concurrent cross-shard transfers built from them never contend on locks.
func accountPair(n int, cross bool, skip int) (int, int) {
	for src := 0; src < 400; src++ {
		for dst := src + 1; dst < src+50; dst++ {
			if src%4 == dst%4 {
				continue // generator never pairs same-org accounts
			}
			sameShard := ledger.IndexShard(src, n) == ledger.IndexShard(dst, n)
			if sameShard != cross {
				if skip == 0 {
					return src, dst
				}
				skip--
				src += 50 // jump past both accounts of this pair
				break
			}
		}
	}
	panic("no pair found")
}

// Single-shard and cross-shard payments both commit end-to-end, the 2PC
// stats add up, and safety (including the atomicity audit) passes.
func TestShardedEndToEnd(t *testing.T) {
	h, gen := shardedFixture(t, 2)
	c0 := gen.Client(0)

	sSrc, sDst := accountPair(2, false, 0)
	xSrc, xDst := accountPair(2, true, 0)
	x2Src, x2Dst := accountPair(2, true, 1)
	txs := []*types.Transaction{
		payTx(t, h, c0, 1000, sSrc, sDst, 5),
		payTx(t, h, c0, 1001, xSrc, xDst, 7),
		payTx(t, h, c0, 1002, x2Src, x2Dst, 3),
	}
	h.SubmitAt(10*time.Millisecond, txs...)
	h.Run(2 * time.Second)

	if got := h.Metrics().NumCommitted(); got != len(txs) {
		t.Fatalf("committed %d of %d", got, len(txs))
	}
	if ab := h.Metrics().NumAborted(); ab != 0 {
		t.Fatalf("%d aborts in a conflict-free run", ab)
	}
	begun, committed, aborted, unresolved := h.CrossShardStats()
	if begun != 2 || committed != 2 || aborted != 0 || unresolved != 0 {
		t.Fatalf("cross-shard stats: begun=%d committed=%d aborted=%d unresolved=%d",
			begun, committed, aborted, unresolved)
	}
	if err := h.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// Two cross-shard transfers fighting over one account: the first prepare
// wins its lock, the second aborts on every touched shard (atomicity), and
// the aborted transfer's funds are fully refunded.
func TestShardedLockConflictAborts(t *testing.T) {
	h, gen := shardedFixture(t, 2)
	c0 := gen.Client(0)

	xSrc, xDst := accountPair(2, true, 0)
	txs := []*types.Transaction{
		payTx(t, h, c0, 1, xSrc, xDst, 5),
		payTx(t, h, c0, 2, xSrc, xDst, 5), // same src: loses the lock race
	}
	h.SubmitAt(10*time.Millisecond, txs...)
	h.Run(2 * time.Second)

	begun, committed, aborted, unresolved := h.CrossShardStats()
	if begun != 2 || unresolved != 0 {
		t.Fatalf("begun=%d unresolved=%d, want 2/0", begun, unresolved)
	}
	if committed != 1 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want exactly one of each", committed, aborted)
	}
	if got := h.Metrics().NumAborted(); got != 1 {
		t.Fatalf("collector aborts = %d, want 1", got)
	}
	if err := h.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// shardedSpec is a small declarative sharded experiment.
func shardedSpec() Scenario {
	return Scenario{
		Shards:          2,
		CrossShardRatio: 0.1,
		Seed:            7,
		Nodes:           NodesSpec{Orgs: 4},
		Workload:        WorkloadSpec{Clients: 8, Accounts: 400},
		Load:            LoadSpec{Rate: 2000, Window: Duration(200 * time.Millisecond)},
	}
}

// A declarative sharded spec runs through the standard driver end-to-end:
// transactions commit, 2PC transfers happen, and the safety audit (per-shard
// consistency plus cross-shard atomicity) passes.
func TestShardedScenarioRun(t *testing.T) {
	var stats [4]int
	res, err := RunWith(shardedSpec(), RunConfig{Observe: func(h Harness) {
		sh := h.(*ShardedHarness)
		stats[0], stats[1], stats[2], stats[3] = sh.CrossShardStats()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyErr != nil {
		t.Fatalf("safety: %v", res.SafetyErr)
	}
	if res.Collector.NumCommitted() == 0 {
		t.Fatal("no transactions committed")
	}
	if stats[0] == 0 {
		t.Fatal("no cross-shard transfers at ratio 0.1")
	}
	if stats[1] == 0 {
		t.Fatal("no cross-shard transfer committed")
	}
}

// Closed-loop load on a sharded spec: the controller reads the sharded
// harness's in-flight count (pending per shard plus undecided 2PC transfers),
// so a tight window holds most of the demand back, the run stays safe, and
// a rerun reproduces it.
func TestShardedClosedLoop(t *testing.T) {
	spec := shardedSpec()
	spec.CrossShardRatio = 0.2
	spec.Load.ClosedLoop = &ClosedLoopSpec{MaxInFlight: 8}
	run := func() (Result, string) {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.Collector.WriteSummary(&sb); err != nil {
			t.Fatal(err)
		}
		res.Collector = nil
		return res, sb.String()
	}
	res, metrics := run()
	if res.SafetyErr != nil {
		t.Fatalf("safety: %v", res.SafetyErr)
	}
	demand := int(math.Round(spec.Load.Rate * spec.Load.Window.D().Seconds()))
	if res.Submitted == 0 || res.Submitted >= demand {
		t.Fatalf("submitted %d of a demand of %d: backpressure should hold some back", res.Submitted, demand)
	}
	again, metricsAgain := run()
	if !reflect.DeepEqual(res, again) || metrics != metricsAgain {
		t.Fatalf("rerun diverged:\n%+v\n%+v", res, again)
	}
}

// `shards: 1` must reproduce the unsharded engine exactly: it compiles
// through the same single-channel target, so every result field — including
// the virtual event count — is identical to a spec without the field.
func TestShardsOneMatchesUnsharded(t *testing.T) {
	base := shardedSpec()
	base.Shards = 0
	base.CrossShardRatio = 0
	one := base
	one.Shards = 1

	r0, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Events != r1.Events || r0.Submitted != r1.Submitted ||
		r0.Throughput != r1.Throughput || r0.AvgLatency != r1.AvgLatency ||
		r0.P99 != r1.P99 {
		t.Fatalf("shards:1 diverged from unsharded:\n%+v\n%+v", r0, r1)
	}
}

// A sharded run is deterministic: same seed → identical per-shard ledger
// digests, metrics, and event counts.
func TestShardedSameSeedDeterminism(t *testing.T) {
	fingerprint := func() string {
		h, gen := shardedFixture(t, 2)
		c0 := gen.Client(0)
		var txs []*types.Transaction
		nonce := uint64(1)
		for i := 0; i < 40; i++ {
			cross := i%5 == 0
			src, dst := accountPair(2, cross, i%6)
			txs = append(txs, payTx(t, h, c0, nonce, src, dst, 1+i%7))
			nonce++
		}
		h.SubmitAt(10*time.Millisecond, txs...)
		h.Run(2 * time.Second)
		if err := h.CheckSafety(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("digests=%v committed=%d aborted=%d events=%d",
			h.LedgerDigests(), h.Metrics().NumCommitted(), h.Metrics().NumAborted(), h.VirtualEvents())
	}
	first := fingerprint()
	if again := fingerprint(); again != first {
		t.Fatalf("rerun diverged:\n%s\n%s", first, again)
	}
}
