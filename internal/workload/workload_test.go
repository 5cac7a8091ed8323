package workload

import (
	"math"
	"strconv"
	"testing"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
)

func newGen(cfg Config) *Generator {
	return NewGenerator(cfg, crypto.NewHMACScheme([]byte("wl")))
}

func TestTransfersCrossOrgs(t *testing.T) {
	g := newGen(DefaultConfig(10))
	for i := 0; i < 200; i++ {
		tx := g.Next()
		if tx.Fn != "send_payment" {
			t.Fatalf("unexpected fn %q with zero nondet ratio", tx.Fn)
		}
		if len(tx.Orgs) != 2 || tx.Orgs[0] == tx.Orgs[1] {
			t.Fatalf("transfer orgs = %v, want two distinct", tx.Orgs)
		}
	}
}

func TestSignedAndUnique(t *testing.T) {
	scheme := crypto.NewHMACScheme([]byte("wl"))
	g := NewGenerator(DefaultConfig(4), scheme)
	seen := make(map[[32]byte]bool)
	for i := 0; i < 500; i++ {
		tx := g.Next()
		if !tx.VerifySig(scheme) {
			t.Fatal("generated transaction has invalid signature")
		}
		if seen[tx.ID()] {
			t.Fatal("duplicate transaction ID generated")
		}
		seen[tx.ID()] = true
	}
}

func TestContentionSkewsToHotAccounts(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.ContentionRatio = 0.5
	g := newGen(cfg)
	hot := 0
	const n = 2000
	nHot := int(float64(cfg.Accounts) * hotFraction)
	for i := 0; i < n; i++ {
		tx := g.Next()
		src := string(tx.Args[0])
		idx, _ := strconv.Atoi(src[len("acct-"):])
		if idx < nHot {
			hot++
		}
	}
	frac := float64(hot) / n
	// Expect roughly >=45% of transfers to source from the hot set (50%
	// forced + occasional cold draws landing there).
	if frac < 0.40 || frac > 0.65 {
		t.Fatalf("hot-source fraction = %.2f with contention 0.5", frac)
	}

	cfg.ContentionRatio = 0
	cold := newGen(cfg)
	hot = 0
	for i := 0; i < n; i++ {
		tx := cold.Next()
		idx, _ := strconv.Atoi(string(tx.Args[0])[len("acct-"):])
		if idx < nHot {
			hot++
		}
	}
	if f := float64(hot) / n; f > 0.05 {
		t.Fatalf("hot fraction %.3f without contention; want ~1%%", f)
	}
}

func TestNondetRatio(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.NondetRatio = 0.3
	g := newGen(cfg)
	nd := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if g.Next().Fn == "create_random" {
			nd++
		}
	}
	if f := float64(nd) / n; f < 0.25 || f > 0.35 {
		t.Fatalf("nondet fraction = %.2f, want ~0.30", f)
	}
}

func TestPrepopulate(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Accounts = 100
	g := newGen(cfg)
	st := ledger.NewState()
	g.Prepopulate(st)
	if st.Len() != 200 {
		t.Fatalf("state has %d keys, want 200 (checking+savings)", st.Len())
	}
	val, _, ok := st.Get(contract.CheckingKey("acct-0"))
	if !ok || string(val) != strconv.FormatInt(InitialBalance, 10) {
		t.Fatalf("acct-0 checking = %q", val)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := newGen(DefaultConfig(8)), newGen(DefaultConfig(8))
	for i := 0; i < 100; i++ {
		if a.Next().ID() != b.Next().ID() {
			t.Fatal("same seed generated different transactions")
		}
	}
}

func TestTransactionsAreOneKB(t *testing.T) {
	g := newGen(DefaultConfig(4))
	tx := g.Next()
	if s := tx.Size(); s < 900 || s > 1200 {
		t.Fatalf("generated txn size %d, want ~1KB", s)
	}
}

func TestDegenerateConfigsClamped(t *testing.T) {
	cfg := Config{NumOrgs: 0, NumClients: 0, Accounts: 0, Seed: 1}
	g := newGen(cfg)
	tx := g.Next()
	if tx == nil || len(tx.Orgs) == 0 {
		t.Fatal("degenerate config produced unusable generator")
	}
}

// TestDestinationContention is the regression test for the NextFrom
// destination-collision redraw: it used to call rng.Intn directly instead
// of pickAccount, so with two organizations (where ~half of first draws
// collide on org parity) the destination silently lost most of its
// contention skew.
func TestDestinationContention(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Accounts = 1000
	cfg.ContentionRatio = 0.6
	g := newGen(cfg)
	nHot := int(float64(cfg.Accounts) * hotFraction)
	const n = 4000
	dstHot, bothHot := 0, 0
	for i := 0; i < n; i++ {
		tx := g.Next()
		src, _ := strconv.Atoi(string(tx.Args[0])[len("acct-"):])
		dst, _ := strconv.Atoi(string(tx.Args[1])[len("acct-"):])
		if dst < nHot {
			dstHot++
			if src < nHot {
				bothHot++
			}
		}
	}
	// Fixed behavior keeps the destination hot with probability
	// ~ContentionRatio; the uniform-redraw bug dropped this to ~0.31 here.
	if f := float64(dstHot) / n; f < 0.50 || f > 0.72 {
		t.Fatalf("dst hot fraction = %.3f, want ~%.2f", f, cfg.ContentionRatio)
	}
	// Hot pairs (both endpoints hot) are the contention that actually forces
	// speculative re-execution; with the bug they occurred at ~0.19.
	if f := float64(bothHot) / n; f < 0.30 {
		t.Fatalf("hot-pair fraction = %.3f, want ~%.2f", f, cfg.ContentionRatio*cfg.ContentionRatio)
	}
}

func TestClientOutOfRangePanics(t *testing.T) {
	g := newGen(DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("Client(NumClients) did not panic")
		}
	}()
	g.Client(g.cfg.NumClients)
}

func TestZipfSInvalidPanics(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.ZipfS = 0.5
	defer func() {
		if recover() == nil {
			t.Fatal("ZipfS in (0,1] did not panic")
		}
	}()
	newGen(cfg)
}

// TestZipfDistribution pins the Zipf draw distribution for a known seed
// with a chi-squared test against the theoretical pmf, bucketed so every
// expected count is large.
func TestZipfDistribution(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.ZipfS = 1.5
	g := newGen(cfg)
	const n = 50000
	counts := make([]int, cfg.Accounts)
	for i := 0; i < n; i++ {
		counts[g.pickAccount()]++
	}
	// Theoretical pmf: P(k) ∝ 1/(1+k)^s (rand.Zipf with v=1).
	pmf := make([]float64, cfg.Accounts)
	var norm float64
	for k := range pmf {
		pmf[k] = math.Pow(float64(1+k), -cfg.ZipfS)
		norm += pmf[k]
	}
	buckets := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 10}, {10, 100}, {100, cfg.Accounts}}
	chi2 := 0.0
	for _, b := range buckets {
		obs, exp := 0, 0.0
		for k := b[0]; k < b[1]; k++ {
			obs += counts[k]
			exp += pmf[k] / norm * n
		}
		chi2 += (float64(obs) - exp) * (float64(obs) - exp) / exp
	}
	// 5 degrees of freedom; the seed is fixed so this cannot flake. A broken
	// skew (uniform draws, wrong exponent) lands in the thousands.
	if chi2 > 16.75 { // p ≈ 0.005
		t.Fatalf("chi-squared = %.1f against Zipf(s=1.5) pmf", chi2)
	}
	// Rank-frequency sanity: strict monotone head and heavy top mass.
	if counts[0] <= counts[1] || counts[1] <= counts[2] {
		t.Fatalf("rank frequencies not decreasing: %v", counts[:3])
	}
	top := 0
	for k := 0; k < 100; k++ {
		top += counts[k]
	}
	if f := float64(top) / n; f < 0.80 {
		t.Fatalf("top-100 mass = %.3f, want > 0.80 under s=1.5", f)
	}
}

// TestZipfSettlementStreamsDeterministic: same-seed generators with every
// new knob enabled produce byte-identical transaction streams — the
// property same-seed determinism of experiment output rests on.
func TestZipfSettlementStreamsDeterministic(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.ZipfS = 1.2
	cfg.SettlementRatio = 0.3
	cfg.ContentionRatio = 0.2
	a, b := newGen(cfg), newGen(cfg)
	for i := 0; i < 300; i++ {
		if a.Next().ID() != b.Next().ID() {
			t.Fatalf("same seed diverged at tx %d", i)
		}
	}
}

func TestSettlementFlowSteps(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.SettlementRatio = 1
	g := newGen(cfg)
	opened := make(map[string]bool)
	follow := 0
	for i := 0; i < 400; i++ {
		tx := g.Next()
		if tx.Contract != "settlement" {
			t.Fatalf("tx %d contract = %q with SettlementRatio 1", i, tx.Contract)
		}
		switch tx.Fn {
		case "open":
			if len(tx.Args) != 5 {
				t.Fatalf("open has %d args", len(tx.Args))
			}
			id := string(tx.Args[0])
			if opened[id] {
				t.Fatalf("flow %s opened twice", id)
			}
			opened[id] = true
		case "settle", "cancel":
			follow++
			if len(tx.Args) != 2 {
				t.Fatalf("%s has %d args", tx.Fn, len(tx.Args))
			}
			if !opened[string(tx.Args[0])] {
				t.Fatalf("%s references unopened flow %q", tx.Fn, tx.Args[0])
			}
		default:
			t.Fatalf("unexpected settlement fn %q", tx.Fn)
		}
		if len(tx.Orgs) == 0 || len(tx.Orgs) > 2 {
			t.Fatalf("settlement orgs = %v", tx.Orgs)
		}
	}
	if follow < 100 {
		t.Fatalf("only %d follow-up steps in 400 draws", follow)
	}
}

// TestPrepopulateSharesBase: prepopulation attaches one shared base to
// every node state — O(1) per node — and the fee schedule appears exactly
// when settlement is enabled.
func TestPrepopulateSharesBase(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Accounts = 100
	g := newGen(cfg)
	a, b := ledger.NewState(), ledger.NewState()
	g.Prepopulate(a)
	g.Prepopulate(b)
	if a.Base() == nil || a.Base() != b.Base() {
		t.Fatal("node states do not share one base layer")
	}
	if !a.Equal(b) {
		t.Fatal("freshly prepopulated states differ")
	}

	cfg.SettlementRatio = 0.5
	gs := newGen(cfg)
	st := ledger.NewState()
	gs.Prepopulate(st)
	if want := 2*cfg.Accounts + cfg.NumOrgs; st.Len() != want {
		t.Fatalf("settlement-enabled state has %d keys, want %d", st.Len(), want)
	}
	fee, _, ok := st.Get(contract.FeeKey("org0"))
	if !ok || string(fee) != strconv.Itoa(contract.DefaultSettlementFee) {
		t.Fatalf("fee schedule = %q, %v", fee, ok)
	}
	if _, _, ok := st.Get(contract.FeeKey("org4")); ok {
		t.Fatal("fee key beyond NumOrgs resolved")
	}
	if _, _, ok := st.Get("sb:chk:acct-0100"); ok {
		t.Fatal("non-canonical account key resolved")
	}
	if _, _, ok := st.Get("sb:chk:acct-100"); ok {
		t.Fatal("account index beyond Accounts resolved")
	}
}

// TestLazyNamesStable: account names render identically from the bounded
// cache and the on-demand path beyond it.
func TestLazyNamesStable(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Accounts = maxNameCache + 10
	g := newGen(cfg)
	for _, i := range []int{0, 1, maxNameCache - 1, maxNameCache, maxNameCache + 9} {
		want := "acct-" + strconv.Itoa(i)
		if got := g.accountName(i); got != want {
			t.Fatalf("accountName(%d) = %q, want %q", i, got, want)
		}
		if got := g.accountName(i); got != want { // cached second read
			t.Fatalf("accountName(%d) second read = %q", i, got)
		}
	}
}
