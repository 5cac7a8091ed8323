package scenario

import (
	"fmt"
	"strconv"
	"time"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// ShardedHarness runs N independent BIDL channels — each a full core.Cluster
// with its own sequencers, consensus group, and organizations — over ONE
// shared simnet.Sim, and stitches them into a single Harness so RunWith,
// every load shape, and the fault machinery work unchanged (DESIGN.md §14).
//
// The keyspace is partitioned by ledger.KeyShard: a transaction whose
// declared write set (contract.KeyDeclarer) falls entirely on one shard is
// routed to that shard's sequencer and flows through the ordinary BIDL
// pipeline; a send_payment spanning two shards is decomposed into a
// two-phase commit driven by per-shard coordinator clients (the "xcoord"
// endpoints): phase 1 submits prepare sub-transactions through each touched
// shard's own sequencer+consensus path, and once both outcomes are known the
// decision (commit everywhere or abort everywhere) is dispatched the same
// way.
type ShardedHarness struct {
	// Engine is the one simulation every shard is deployed on; it supplies
	// At, Run, Metrics, IdentityScheme and VirtualEvents.
	*substrate.Engine
	shards   []*core.Cluster
	keyOwner contract.KeyOwnerFunc

	// Per-shard 2PC coordinator clients.
	xid    []crypto.Identity
	xep    []simnet.NodeID
	xnonce []uint64

	gidSeq  uint64
	subs    map[types.TxID]*xsubref
	records []*xrecord
	open    int // records not yet resolved
}

// xrecord tracks one cross-shard transaction through its two phases.
type xrecord struct {
	orig                    types.TxID
	debitShard, creditShard int
	// The four possible decision sub-transactions, pre-signed at submit
	// time so the hook never draws nonces in notice-arrival order.
	commitD, commitC, abortD, abortC *types.Transaction

	votes, prepAborts int
	decided           bool
	abort             bool // the decision, once decided
	resolved          int
	done              bool
	// decisionAborted records a phase-2 sub-transaction reporting an
	// execution abort — an atomicity violation (decisions are infallible by
	// contract design), surfaced by CheckSafety.
	decisionAborted bool
}

type xsubref struct {
	rec   *xrecord
	phase int // 1 = prepare, 2 = decision
}

// NewShardedHarness builds shards clusters on one shared simulation. cfg is
// the per-shard cluster template: every shard gets this many organizations,
// consensus nodes, etc.; Seed, Costs, Topology and Tracer are
// taken from it, and per-shard node randomness is decorrelated by shard
// index.
func NewShardedHarness(shards int, cfg core.Config) *ShardedHarness {
	if shards < 1 {
		shards = 1
	}
	h := &ShardedHarness{
		Engine:   core.NewEngine(cfg),
		keyOwner: contract.SmallBankKeyOwner(cfg.NumOrgs),
		subs:     make(map[types.TxID]*xsubref),
	}
	for i := 0; i < shards; i++ {
		sc := cfg
		// Decorrelate per-shard node randomness and leader rotation; the
		// shared scheme keeps client keys identical across shards.
		sc.Seed = cfg.Seed + int64(i)*1_000_000_007
		h.shards = append(h.shards,
			core.NewClusterOn(h.Engine, "s"+strconv.Itoa(i)+"/", sc))
		h.xid = append(h.xid, crypto.Identity("xcoord-s"+strconv.Itoa(i)))
		h.xnonce = append(h.xnonce, 0)
	}
	return h
}

// NumShards returns the channel count.
func (h *ShardedHarness) NumShards() int { return len(h.shards) }

// Shard exposes one channel's cluster (tests, fault wiring).
func (h *ShardedHarness) Shard(i int) *core.Cluster { return h.shards[i] }

// RegisterClients implements Harness: every workload client is registered on
// every shard (a client's transactions may route anywhere), then each
// shard's coordinator client is registered last — after all workload
// endpoints — so endpoint IDs are independent of the client set's content.
func (h *ShardedHarness) RegisterClients(ids []crypto.Identity) {
	for _, s := range h.shards {
		s.RegisterClients(ids)
	}
	for i, s := range h.shards {
		if len(h.xep) > i { // idempotent second call
			continue
		}
		h.Scheme.Register(h.xid[i])
		h.xep = append(h.xep, s.RegisterCoordinator(h.xid[i], h.onCoordNotice))
	}
}

// Prepopulate implements Harness: every shard holds the FULL base state.
// Only the keys a shard owns are ever written there, so non-owned keys stay
// at their base version on all of a shard's replicas — identical staleness,
// which is exactly what per-org state agreement requires.
func (h *ShardedHarness) Prepopulate(fn func(*ledger.State)) {
	for _, s := range h.shards {
		s.Prepopulate(fn)
	}
}

// SubmitAt implements Harness: classify each transaction by its declared
// write-key set and route it — single-shard transactions to their shard's
// clients, two-shard payments through the 2PC coordinator.
func (h *ShardedHarness) SubmitAt(at time.Duration, txns ...*types.Transaction) {
	n := len(h.shards)
	perShard := make([][]*types.Transaction, n)
	for _, tx := range txns {
		keys, declared := h.shards[0].Registry.DeclaredWrites(tx)
		shard, cross := classify(keys, declared, tx, n)
		if !cross {
			perShard[shard] = append(perShard[shard], tx)
			continue
		}
		d, c := h.beginCross(at, tx, keys)
		perShard[d.debitShard] = append(perShard[d.debitShard], c[0])
		perShard[d.creditShard] = append(perShard[d.creditShard], c[1])
	}
	for i, batch := range perShard {
		if len(batch) > 0 {
			h.shards[i].SubmitAt(at, batch...)
		}
	}
}

// classify maps a declared write set to (shard, cross). Transactions with
// no declaration, no writes, or writes on one shard are single-shard; only
// a two-account payment spanning two shards goes through 2PC. Anything else
// multi-shard (not produced by the workload generator) falls back to the
// first key's shard — a documented approximation, safe because every shard
// executes deterministically and per-shard consistency is still audited.
func classify(keys []string, declared bool, tx *types.Transaction, n int) (shard int, cross bool) {
	if !declared || len(keys) == 0 {
		// Route by client so undeclared traffic still spreads; the draw is
		// deterministic in the transaction alone.
		return ledger.KeyShard(string(tx.Client), n), false
	}
	first := ledger.KeyShard(keys[0], n)
	multi := false
	for _, k := range keys[1:] {
		if ledger.KeyShard(k, n) != first {
			multi = true
			break
		}
	}
	if !multi {
		return first, false
	}
	if tx.Contract == "smallbank" && tx.Fn == "send_payment" && len(keys) == 2 {
		return first, true
	}
	return first, false
}

// beginCross decomposes a two-shard payment: pre-signs all six possible
// sub-transactions, registers the prepares with the coordinator, and
// accounts the original transaction as submitted. Returns the record and
// the two prepare sub-transactions (debit first).
func (h *ShardedHarness) beginCross(at time.Duration, tx *types.Transaction, keys []string) (*xrecord, [2]*types.Transaction) {
	src, dst := string(tx.Args[0]), string(tx.Args[1])
	amt := string(tx.Args[2])
	n := len(h.shards)
	rec := &xrecord{
		orig:        tx.ID(),
		debitShard:  ledger.KeyShard(keys[0], n),
		creditShard: ledger.KeyShard(keys[1], n),
	}
	gid := "xg-" + strconv.FormatUint(h.gidSeq, 10)
	h.gidSeq++
	orgSrc := h.keyOwner(keys[0], tx)
	orgDst := h.keyOwner(keys[1], tx)

	prepD := h.subTx(rec.debitShard, orgSrc, "prepare_debit", gid, src, amt)
	prepC := h.subTx(rec.creditShard, orgDst, "prepare_credit", gid, dst)
	rec.commitD = h.subTx(rec.debitShard, orgSrc, "commit_debit", gid, src)
	rec.commitC = h.subTx(rec.creditShard, orgDst, "commit_credit", gid, dst, amt)
	rec.abortD = h.subTx(rec.debitShard, orgSrc, "abort_debit", gid, src)
	rec.abortC = h.subTx(rec.creditShard, orgDst, "abort_credit", gid, dst)

	h.subs[prepD.ID()] = &xsubref{rec: rec, phase: 1}
	h.subs[prepC.ID()] = &xsubref{rec: rec, phase: 1}
	h.records = append(h.records, rec)
	h.open++

	// The original transaction never reaches a sequencer; its lifecycle is
	// the 2PC round, accounted here (submit) and in the hook (resolution).
	h.Submitted(rec.orig, h.xep[rec.debitShard], at)
	return rec, [2]*types.Transaction{prepD, prepC}
}

// subTx builds and signs one coordinator sub-transaction for a shard.
func (h *ShardedHarness) subTx(shard int, org, fn string, args ...string) *types.Transaction {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	tx := &types.Transaction{
		Client:   h.xid[shard],
		Nonce:    h.xnonce[shard],
		Contract: "xshard",
		Fn:       fn,
		Args:     bs,
		Orgs:     []string{org},
	}
	h.xnonce[shard]++
	if err := tx.Sign(h.Scheme); err != nil {
		panic(fmt.Sprintf("scenario: signing coordinator sub-txn: %v", err))
	}
	tx.Warm()
	return tx
}

// onCoordNotice is the coordinator hook, invoked by a shard's xcoord client
// for every commit notice it receives. It runs inside the event loop, so its
// mutations of harness state are totally ordered.
func (h *ShardedHarness) onCoordNotice(ctx *simnet.Context, e substrate.CommitEntry) {
	ref, ok := h.subs[e.TxID]
	if !ok {
		return
	}
	delete(h.subs, e.TxID)
	rec := ref.rec
	if ref.phase == 1 {
		rec.votes++
		if e.Aborted {
			rec.prepAborts++
		}
		if rec.votes < 2 || rec.decided {
			return
		}
		rec.decided = true
		rec.abort = rec.prepAborts > 0
		h.Tracer.TxStage(rec.orig, trace.StageXPrepared, int(h.xep[rec.debitShard]), ctx.Now())
		d, c := rec.commitD, rec.commitC
		if rec.abort {
			d, c = rec.abortD, rec.abortC
		}
		h.subs[d.ID()] = &xsubref{rec: rec, phase: 2}
		h.subs[c.ID()] = &xsubref{rec: rec, phase: 2}
		// Hand each decision to its shard's coordinator client, which
		// submits it to that shard's leader sequencer like any other batch.
		ctx.Send(h.xep[rec.debitShard], &core.SubmitBatch{Txns: []*types.Transaction{d}})
		ctx.Send(h.xep[rec.creditShard], &core.SubmitBatch{Txns: []*types.Transaction{c}})
		return
	}
	// Phase 2: a decision applied on one shard.
	rec.resolved++
	if e.Aborted {
		rec.decisionAborted = true
	}
	if rec.resolved < 2 {
		return
	}
	rec.done = true
	h.open--
	h.Tracer.TxStage(rec.orig, trace.StageXResolved, int(h.xep[rec.debitShard]), ctx.Now())
	h.Notified(rec.orig, h.xep[rec.debitShard], ctx.Now(), rec.abort)
}

// InFlight implements Harness: per-shard pending transactions (which count
// coordinator sub-transactions — a deliberate overcount that makes
// closed-loop control conservative about 2PC work in flight) plus
// cross-shard transactions awaiting their decision.
func (h *ShardedHarness) InFlight() int {
	n := h.open
	for _, s := range h.shards {
		n += s.InFlight()
	}
	return n
}

// CheckSafety implements Harness: every shard's own audit (prefix-consistent
// ledgers, per-org state agreement) plus the cross-shard atomicity
// invariant — every RESOLVED transfer applied its decision on both shards;
// transfers still in flight at the simulation horizon are reported by
// InFlight, not here.
func (h *ShardedHarness) CheckSafety() error {
	var violations []string
	for i, rec := range h.records {
		if rec.done && rec.decisionAborted {
			violations = append(violations,
				fmt.Sprintf("cross-shard transfer %d (shards %d→%d): decision sub-transaction aborted — atomicity broken",
					i, rec.debitShard, rec.creditShard))
		}
		if rec.decided && rec.done && rec.resolved != 2 {
			violations = append(violations,
				fmt.Sprintf("cross-shard transfer %d: resolved on %d shards, want 2", i, rec.resolved))
		}
	}
	for i, s := range h.shards {
		if err := s.CheckSafety(); err != nil {
			violations = append(violations, fmt.Sprintf("shard %d: %v", i, err))
		}
	}
	return ledger.CheckConsistency("sharded", violations, nil, nil)
}

// LedgerDigests returns each shard's chained head-of-ledger digest — the
// determinism fingerprint sharded smoke tests compare across engines.
func (h *ShardedHarness) LedgerDigests() []crypto.Digest {
	ds := make([]crypto.Digest, len(h.shards))
	for i, s := range h.shards {
		ds[i] = s.LedgerDigest()
	}
	return ds
}

// CrossShardStats reports 2PC bookkeeping: transfers begun, committed,
// aborted, and still unresolved at the horizon.
func (h *ShardedHarness) CrossShardStats() (begun, committed, aborted, unresolved int) {
	for _, rec := range h.records {
		begun++
		switch {
		case !rec.done:
			unresolved++
		case rec.abort:
			aborted++
		default:
			committed++
		}
	}
	return
}
