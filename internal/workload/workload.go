// Package workload generates the paper's SmallBank evaluation workload
// (§6, "Workloads and metrics"): accounts spread over organizations, money
// transfers between accounts of different organizations, a configurable
// contention ratio steering transfers onto a 1% hot-account set (§6.3), and
// a configurable ratio of non-deterministic account-creation transactions.
//
// Generation is streaming and O(1) per draw at any account count: account
// names render lazily (a bounded cache covers the hot low indices, anything
// beyond renders on demand), account selection optionally follows a Zipf
// distribution with configurable skew, and prepopulation attaches a shared
// function-defined base layer to each node state instead of writing
// 2×Accounts entries per node — the step that made 10⁷-account scenarios
// cost O(accounts × nodes) memory before the first transaction flowed.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
)

// Config parameterizes a workload.
type Config struct {
	// NumOrgs is the number of organizations accounts are spread over.
	NumOrgs int
	// NumClients is the number of submitting clients (paper: 100).
	NumClients int
	// Accounts is the total number of bank accounts.
	Accounts int
	// ContentionRatio is the probability a transfer touches a hot account
	// (paper sweeps 0–50%).
	ContentionRatio float64
	// NondetRatio is the probability a transaction invokes the
	// non-deterministic create_random contract (§6.3).
	NondetRatio float64
	// ZipfS, when > 1, draws non-hot-set accounts from a Zipf distribution
	// with skew exponent s (low indices are popular). Zero keeps the legacy
	// uniform draw; values in (0, 1] are invalid (rand.Zipf requires s > 1).
	ZipfS float64
	// SettlementRatio is the probability a transaction is a step of a
	// multi-step settlement flow (open → settle/cancel) instead of a
	// SmallBank transfer.
	SettlementRatio float64
	// Shards, when > 1, makes pair selection shard-aware (the ledger.KeyShard
	// keyspace partitioning): both accounts of a transfer land on the same
	// shard, except with probability CrossShardRatio the pair deliberately
	// straddles two shards (the 2PC path). Settlement flows stay shard-local —
	// the flow id is advanced until its escrow key shards with the source
	// account. Zero or one keeps the pair draw byte-identical to the
	// unsharded generator (no extra randomness is consumed).
	Shards int
	// CrossShardRatio is the probability a transfer crosses shards.
	CrossShardRatio float64
	// Seed drives all workload randomness.
	Seed int64
}

// Workload parameters no experiment, workload or spec varies: transactions
// are padded to types.DefaultTxPadding.
const (
	// hotFraction is the share of accounts considered hot (paper: 1%).
	hotFraction = 0.01
	// InitialBalance seeds every account.
	InitialBalance = 1_000_000
)

// DefaultConfig returns the paper's standard workload parameters.
func DefaultConfig(numOrgs int) Config {
	return Config{
		NumOrgs:         numOrgs,
		NumClients:      100,
		Accounts:        10000,
		ContentionRatio: 0,
		NondetRatio:     0,
		ZipfS:           0,
		SettlementRatio: 0,
		Seed:            7,
	}
}

// maxNameCache bounds the lazily-filled account-name cache. Skewed draws
// concentrate on low indices, so the cache absorbs almost every render while
// staying constant-size no matter how many accounts the config declares.
const maxNameCache = 1 << 16

// settleLag is how many generator draws separate a flow's open from its
// settle/cancel follow-up — long enough to usually land in a later block.
const settleLag = 8

// pendingFlow is a settlement flow that has been opened but not yet
// settled or cancelled.
type pendingFlow struct {
	id       string
	src, dst int
	due      uint64 // draw count after which the follow-up may fire
}

// Generator produces signed SmallBank (and optionally settlement-flow)
// transactions.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	zipf   *rand.Zipf
	scheme crypto.Scheme
	nonces map[crypto.Identity]uint64
	nHot   int

	// Deterministic name caches. Client and organization names are pure
	// functions of the config, rendered once. Account names render lazily
	// into a bounded cache so construction stays O(1) in Accounts.
	clients   []crypto.Identity
	orgNames  []string
	nameCache []string

	// base is the shared immutable prepopulation layer: one function-defined
	// ledger.Base describing every account balance (and, with settlement
	// enabled, every org's fee schedule), attached to each node state by
	// Prepopulate. Built once per generator; O(1) memory total.
	base    *ledger.Base
	prepBal []byte
	feeVal  []byte

	// Settlement-flow bookkeeping: opened flows queue here until their
	// follow-up (settle or cancel) comes due.
	flows   []pendingFlow
	flowSeq uint64
	draws   uint64
}

// NewGenerator builds a generator and registers all client identities with
// the scheme.
func NewGenerator(cfg Config, scheme crypto.Scheme) *Generator {
	if cfg.NumOrgs < 1 {
		cfg.NumOrgs = 1
	}
	if cfg.NumClients < 1 {
		cfg.NumClients = 1
	}
	if cfg.Accounts < cfg.NumOrgs*2 {
		cfg.Accounts = cfg.NumOrgs * 2
	}
	if cfg.ZipfS != 0 && cfg.ZipfS <= 1 {
		panic(fmt.Sprintf("workload: ZipfS = %v is invalid; need 0 (uniform) or > 1", cfg.ZipfS))
	}
	g := &Generator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		scheme: scheme,
		nonces: make(map[crypto.Identity]uint64),
		nHot:   int(float64(cfg.Accounts) * hotFraction),
	}
	if g.nHot < 1 {
		g.nHot = 1
	}
	if cfg.ZipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.Accounts-1))
	}
	g.clients = make([]crypto.Identity, cfg.NumClients)
	for i := range g.clients {
		g.clients[i] = crypto.Identity(fmt.Sprintf("client-%d", i))
	}
	g.orgNames = make([]string, cfg.NumOrgs)
	for o := range g.orgNames {
		g.orgNames[o] = types.OrgName(o)
	}
	n := cfg.Accounts
	if n > maxNameCache {
		n = maxNameCache
	}
	g.nameCache = make([]string, n)
	for i := 0; i < cfg.NumClients; i++ {
		scheme.Register(g.Client(i))
	}
	return g
}

// Client returns the identity of client i. An out-of-range index is a
// harness bug — the returned identity would never have been registered with
// the crypto scheme, so every transaction it signs would fail verification
// far from the root cause; panic here instead.
func (g *Generator) Client(i int) crypto.Identity {
	if i < 0 || i >= len(g.clients) {
		panic(fmt.Sprintf("workload: client index %d out of range [0,%d)", i, len(g.clients)))
	}
	return g.clients[i]
}

// accountName renders the name of account i, serving low indices from the
// bounded cache.
func (g *Generator) accountName(i int) string {
	if i < len(g.nameCache) {
		if s := g.nameCache[i]; s != "" {
			return s
		}
		s := "acct-" + strconv.Itoa(i)
		g.nameCache[i] = s
		return s
	}
	return "acct-" + strconv.Itoa(i)
}

// account returns the name of account i; accounts are assigned to
// organizations round-robin.
func (g *Generator) account(i int) (name, org string) {
	return g.accountName(i), g.orgNames[i%g.cfg.NumOrgs]
}

// World-state key prefixes the functional base resolves. These mirror
// contract.CheckingKey/SavingsKey/FeeKey applied to the generator's account
// and organization naming, without going through the contract package's
// interning cache (which would retain every key a full-state scan renders).
const (
	baseChkPrefix = "sb:chk:acct-"
	baseSavPrefix = "sb:sav:acct-"
	baseFeePrefix = "stl:fee:" + types.OrgPrefix
)

// parseSuffixIndex matches key against prefix + canonical decimal index in
// [0, n). It allocates nothing: the base's lookup function sits under every
// state read that misses a node's delta.
func parseSuffixIndex(key, prefix string, n int) (int, bool) {
	if len(key) <= len(prefix) || key[:len(prefix)] != prefix {
		return 0, false
	}
	s := key[len(prefix):]
	if len(s) > 1 && s[0] == '0' { // leading zeros are non-canonical
		return 0, false
	}
	idx := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int(c-'0')
		if idx >= n { // also guards overflow: n is an int that fit the config
			return 0, false
		}
	}
	return idx, true
}

// Base returns the shared prepopulation layer: a function-defined
// ledger.Base holding every account's checking and savings balance (and,
// when settlement flows are enabled, each organization's fee schedule).
// It is built once and shared by reference across every node state, so a
// cluster's prepopulated world state costs O(1) memory regardless of
// Accounts. Both closures are pure — every node state reads the base, in
// any order.
func (g *Generator) Base() *ledger.Base {
	if g.base != nil {
		return g.base
	}
	prepBal := []byte(strconv.FormatInt(InitialBalance, 10))
	feeVal := []byte(strconv.Itoa(contract.DefaultSettlementFee))
	nAcct := g.cfg.Accounts
	nFee := 0
	if g.cfg.SettlementRatio > 0 {
		nFee = g.cfg.NumOrgs
	}
	g.prepBal, g.feeVal = prepBal, feeVal
	g.base = ledger.NewFuncBase(2*nAcct+nFee,
		func(i int) string {
			switch {
			case i < nAcct:
				return baseChkPrefix + strconv.Itoa(i)
			case i < 2*nAcct:
				return baseSavPrefix + strconv.Itoa(i-nAcct)
			default:
				return baseFeePrefix + strconv.Itoa(i-2*nAcct)
			}
		},
		func(key string) ([]byte, bool) {
			if _, ok := parseSuffixIndex(key, baseChkPrefix, nAcct); ok {
				return prepBal, true
			}
			if _, ok := parseSuffixIndex(key, baseSavPrefix, nAcct); ok {
				return prepBal, true
			}
			if nFee > 0 {
				if _, ok := parseSuffixIndex(key, baseFeePrefix, nFee); ok {
					return feeVal, true
				}
			}
			return nil, false
		})
	return g.base
}

// Prepopulate seeds a world state with every account at the initial
// balance, replacing the create phase of the benchmark so experiments start
// from the transfer steady state. The state is attached copy-on-write to
// the generator's shared base layer: O(1) time and memory per node, where
// this used to write 2×Accounts entries into every node state (dominating
// startup at ~40% of short-sweep CPU and making memory O(accounts×nodes)).
func (g *Generator) Prepopulate(st *ledger.State) {
	st.SetBase(g.Base())
}

// pickAccount returns a random account index, drawn from the hot set with
// probability ContentionRatio; the remaining draws are uniform, or Zipf
// with skew ZipfS when configured.
func (g *Generator) pickAccount() int {
	if g.cfg.ContentionRatio > 0 && g.rng.Float64() < g.cfg.ContentionRatio {
		return g.rng.Intn(g.nHot)
	}
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	// Cold accounts (may rarely hit hot ones too, as in the benchmark).
	return g.rng.Intn(g.cfg.Accounts)
}

// pickPair draws a (src, dst) account pair for a cross-org transfer or
// settlement flow. Every redraw goes through pickAccount so the contention
// and skew knobs apply to the destination too — the redraw loop used to
// fall back to a uniform draw, silently under-applying contention to the
// destination on every collision.
func (g *Generator) pickPair() (src, dst int) {
	if g.cfg.Shards > 1 {
		return g.pickPairSharded(g.rng.Float64() < g.cfg.CrossShardRatio)
	}
	src = g.pickAccount()
	dst = g.pickAccount()
	for dst == src || (g.cfg.NumOrgs > 1 && dst%g.cfg.NumOrgs == src%g.cfg.NumOrgs) {
		dst = g.pickAccount()
	}
	return src, dst
}

// pickPairSharded draws a pair whose ledger.IndexShard relation is exactly
// cross: same shard for the ordinary single-channel pipeline, different
// shards for the 2PC path. Every redraw still goes through pickAccount, so
// the contention and skew knobs keep applying to the destination.
func (g *Generator) pickPairSharded(cross bool) (src, dst int) {
	n := g.cfg.Shards
	src = g.pickAccount()
	srcShard := ledger.IndexShard(src, n)
	dst = g.pickAccount()
	for dst == src ||
		(g.cfg.NumOrgs > 1 && dst%g.cfg.NumOrgs == src%g.cfg.NumOrgs) ||
		(ledger.IndexShard(dst, n) == srcShard) == cross {
		dst = g.pickAccount()
	}
	return src, dst
}

// orgsPair returns the related-organization set for a two-account action.
func orgsPair(a, b string) []string {
	if a == b {
		return []string{a}
	}
	return []string{a, b}
}

// Next produces one signed transaction from a uniformly chosen client.
func (g *Generator) Next() *types.Transaction {
	return g.NextFrom(g.rng.Intn(g.cfg.NumClients))
}

// NextFrom produces one signed transaction from client ci.
func (g *Generator) NextFrom(ci int) *types.Transaction {
	client := g.Client(ci)
	g.nonces[client]++
	g.draws++
	tx := &types.Transaction{
		Client:   client,
		Nonce:    g.nonces[client],
		Contract: "smallbank",
		Padding:  types.DefaultTxPadding,
	}
	switch {
	case g.cfg.NondetRatio > 0 && g.rng.Float64() < g.cfg.NondetRatio:
		// Non-deterministic account creation (one related org).
		acct := fmt.Sprintf("nd-%d-%d", ci, g.nonces[client])
		tx.Fn = "create_random"
		tx.Args = [][]byte{[]byte(acct)}
		tx.Orgs = []string{g.orgNames[g.rng.Intn(g.cfg.NumOrgs)]}
	case g.cfg.SettlementRatio > 0 && g.rng.Float64() < g.cfg.SettlementRatio:
		g.settlementStep(tx)
	default:
		// Money transfer between accounts of different organizations
		// (same-org transfers only in the degenerate single-org case).
		src, dst := g.pickPair()
		srcName, srcOrg := g.account(src)
		dstName, dstOrg := g.account(dst)
		amount := strconv.Itoa(1 + g.rng.Intn(100))
		tx.Fn = "send_payment"
		tx.Args = [][]byte{[]byte(srcName), []byte(dstName), []byte(amount)}
		tx.Orgs = orgsPair(srcOrg, dstOrg)
	}
	if err := tx.Sign(g.scheme); err != nil {
		panic(fmt.Sprintf("workload: signing failed: %v", err))
	}
	return tx
}

// settlementStep emits one step of a multi-step settlement flow: either the
// follow-up (settle 90% / cancel 10%) of the oldest due open flow, or a new
// open. Follow-ups trail their open by settleLag draws, so a flow's escrow
// key is created, read, and deleted across distinct blocks — the
// read/write-skewed delta churn SmallBank's single-shot transfers lack.
func (g *Generator) settlementStep(tx *types.Transaction) {
	tx.Contract = "settlement"
	if len(g.flows) > 0 && g.flows[0].due <= g.draws {
		f := g.flows[0]
		g.flows = g.flows[1:]
		srcName, srcOrg := g.account(f.src)
		dstName, dstOrg := g.account(f.dst)
		if g.rng.Float64() < 0.9 {
			tx.Fn = "settle"
			tx.Args = [][]byte{[]byte(f.id), []byte(dstName)}
		} else {
			tx.Fn = "cancel"
			tx.Args = [][]byte{[]byte(f.id), []byte(srcName)}
		}
		tx.Orgs = orgsPair(srcOrg, dstOrg)
		return
	}
	var src, dst int
	if g.cfg.Shards > 1 {
		src, dst = g.pickPairSharded(false)
	} else {
		src, dst = g.pickPair()
	}
	g.flowSeq++
	if n := g.cfg.Shards; n > 1 {
		// Keep the flow single-shard: its escrow key ("stl:esc:flow-<seq>")
		// must shard with the source account's keys, so advance the flow
		// sequence until ledger routes it there.
		want := ledger.IndexShard(src, n)
		for ledger.IndexShard(int(g.flowSeq), n) != want {
			g.flowSeq++
		}
	}
	id := "flow-" + strconv.FormatUint(g.flowSeq, 10)
	srcName, srcOrg := g.account(src)
	dstName, dstOrg := g.account(dst)
	amount := strconv.Itoa(100 + g.rng.Intn(900))
	tx.Fn = "open"
	tx.Args = [][]byte{[]byte(id), []byte(srcName), []byte(dstName), []byte(amount), []byte(srcOrg)}
	tx.Orgs = orgsPair(srcOrg, dstOrg)
	g.flows = append(g.flows, pendingFlow{id: id, src: src, dst: dst, due: g.draws + settleLag})
}

// Batch produces n transactions.
func (g *Generator) Batch(n int) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = g.Next()
	}
	return txs
}
