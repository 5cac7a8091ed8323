package core

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// mkVector builds a properly signed single-org result vector for tx at seq
// with the given write value — the §4.4 scenario where a malicious
// organization produces alternative approved vectors for its own
// transaction.
func mkVector(t *testing.T, c *Cluster, seq uint64, tx *types.Transaction, val string) ResultEntry {
	t.Helper()
	org := tx.CorrespondingOrg()
	writes := []ledger.Write{{Key: "k", Val: []byte(val)}}
	dig := (&ledger.RWSet{Writes: writes}).Digest()
	sig, err := c.Scheme.Sign(crypto.Identity(org), orgResultBytes(seq, tx.ID(), org, dig, false, false))
	if err != nil {
		t.Fatal(err)
	}
	return ResultEntry{
		Seq: seq, TxID: tx.ID(),
		Vector: []OrgResult{{Org: org, Digest: dig, Writes: writes, Sig: sig}},
	}
}

// withCtx drives a consensus node method with an injected activation.
func cnWithCtx(c *Cluster, cn *ConsNode, fn func()) {
	cn.Bind(simnet.NewInjectedContext(c.Net, cn.Ep), fn)
}

func nnWithCtx(c *Cluster, nn *NormalNode, fn func()) {
	nn.bind(simnet.NewInjectedContext(c.Net, nn.ep), fn)
}

// persistAt returns nn's PERSIST tally for seq, or nil if it holds none.
func persistAt(nn *NormalNode, seq uint64) *persistStatus {
	if ns := nn.pool.noted(seq); ns != nil && ns.persist.haveKey0 {
		return &ns.persist
	}
	return nil
}

// TestLemma52LocalStoreUniqueness: a consensus node persists at most one
// result vector per sequence number (§4.4, the heart of Lemma 5.2).
func TestLemma52LocalStoreUniqueness(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1] // single-org: one org CAN approve two vectors
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	const seq = uint64(9001)
	cn := c.ConsNodes[0]
	cnWithCtx(c, cn, func() {
		// The leader proposed (seq → tx).
		cn.Proposed(0, valueFor(seq, tx))
		a := mkVector(t, c, seq, tx, "A")
		b := mkVector(t, c, seq, tx, "B")
		cn.evaluateResult(&a)
		cn.evaluateResult(&b) // must be ignored: one vector per seq
		sr, ok := cn.persisted[seq]
		if !ok {
			t.Fatal("first vector not stored")
		}
		if sr.VecDigest != a.VectorDigest() {
			t.Fatal("second vector displaced the first")
		}
		if len(cn.persistOut) != 1 {
			t.Fatalf("persistOut has %d entries, want 1", len(cn.persistOut))
		}
	})
}

func valueFor(seq uint64, tx *types.Transaction) consensus.Value {
	ordering := types.EncodeOrdering([]uint64{seq}, []types.TxID{tx.ID()})
	return consensus.Value{Digest: types.OrderingDigest(ordering), Data: ordering}
}

// TestLemma52SplitVotesNeverPersist: PERSIST votes split across two vectors
// never reach the 2f+1 quorum, so neither result commits — a malicious
// organization can only hurt its own transactions' liveness (§4.4).
func TestLemma52SplitVotesNeverPersist(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1]
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	const seq = uint64(9001)
	a := mkVector(t, c, seq, tx, "A")
	b := mkVector(t, c, seq, tx, "B")
	nn := c.Orgs[0][0]

	sendPersist := func(cnIdx int, e ResultEntry) {
		entry := PersistEntry{
			Seq: e.Seq, TxID: e.TxID, VecDigest: e.VectorDigest(),
			Consistent: true, ResultDigest: (&ledger.RWSet{Writes: e.Union()}).Digest(),
			Writes: e.Union(),
		}
		msg := &PersistMsg{Node: cnIdx, Entries: []PersistEntry{entry}}
		sig, err := c.Scheme.Sign(cnIdentity(cnIdx), persistSigningBytes(cnIdx, msg.Entries))
		if err != nil {
			t.Fatal(err)
		}
		msg.Sig = sig
		nnWithCtx(c, nn, func() {
			nn.onPersist(c.ConsNodes[cnIdx].Ep.ID(), msg)
		})
	}

	// 2 votes for A, 2 for B: quorum is 3, so neither persists.
	sendPersist(0, a)
	sendPersist(1, a)
	sendPersist(2, b)
	sendPersist(3, b)
	if ps := persistAt(nn, seq); ps != nil && ps.result != nil {
		t.Fatal("split votes reached persistence")
	}

	// A third distinct vote for A persists it — with A's content.
	sendPersist(2, a)
	ps := persistAt(nn, seq)
	if ps == nil || ps.result == nil {
		t.Fatal("2f+1 matching votes did not persist")
	}
	if string(ps.result.Writes[0].Val) != "A" {
		t.Fatalf("persisted value %q, want A", ps.result.Writes[0].Val)
	}
}

// TestPersistVoteDeduplication: the same consensus node voting twice counts
// once.
func TestPersistVoteDeduplication(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1]
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	const seq = uint64(9001)
	a := mkVector(t, c, seq, tx, "A")
	nn := c.Orgs[0][0]
	entry := PersistEntry{
		Seq: a.Seq, TxID: a.TxID, VecDigest: a.VectorDigest(),
		Consistent: true, ResultDigest: (&ledger.RWSet{Writes: a.Union()}).Digest(),
		Writes: a.Union(),
	}
	msg := &PersistMsg{Node: 0, Entries: []PersistEntry{entry}}
	sig, _ := c.Scheme.Sign(cnIdentity(0), persistSigningBytes(0, msg.Entries))
	msg.Sig = sig
	for i := 0; i < 5; i++ {
		nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[0].Ep.ID(), msg) })
	}
	if ps := persistAt(nn, seq); ps != nil && ps.result != nil {
		t.Fatal("one node's repeated votes reached quorum")
	}
}

// TestPersistRejectsForgedCN: a PERSIST batch with a bad signature is
// ignored entirely.
func TestPersistRejectsForgedCN(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	nn := c.Orgs[0][0]
	entry := PersistEntry{Seq: 9001, TxID: tx.ID(), Consistent: true}
	msg := &PersistMsg{Node: 0, Entries: []PersistEntry{entry}, Sig: crypto.Signature("junk")}
	nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[0].Ep.ID(), msg) })
	if persistAt(nn, 9001) != nil {
		t.Fatal("forged persist batch processed")
	}
}

// TestPersistVoteBitmask: at every cluster size — including consensus-node
// indices past the first 64-bit word — vote counts equal a plain
// set-per-key tally, duplicates count once, a diverging key is tallied apart,
// and the honest single-key path allocates nothing.
func TestPersistVoteBitmask(t *testing.T) {
	key, other := crypto.Hash([]byte("honest")), crypto.Hash([]byte("diverging"))
	for _, n := range []int{4, 64, 65, 97} {
		ps := new(persistStatus)
		ref := map[crypto.Digest]map[int]bool{key: {}, other: {}}
		vote := func(k crypto.Digest, node int) {
			t.Helper()
			ref[k][node] = true
			if got, want := ps.vote(k, node), len(ref[k]); got != want {
				t.Fatalf("n=%d: vote(%v, %d) = %d, want %d", n, k, node, got, want)
			}
		}
		for i := 0; i < n; i++ {
			node := (i*7 + 3) % n // 7 is coprime to every n here: each node once, scrambled
			vote(key, node)
			vote(key, node) // a repeated vote counts once
			if i%5 == 0 {
				vote(other, node)
			}
		}
		if len(ps.spill) != 1 || ps.spill[other] == nil {
			t.Fatalf("n=%d: spill map holds %d keys, want only the diverging one", n, len(ps.spill))
		}

		honest := new(persistStatus)
		allocs := testing.AllocsPerRun(10, func() {
			for node := 0; node < n; node++ {
				honest.vote(key, node)
			}
		})
		if allocs != 0 {
			t.Fatalf("n=%d: honest votes cost %v allocs, want 0", n, allocs)
		}
	}
}

// TestPersistVoteAllocs: the PERSIST tally lives by value in the sequence
// number's slot, so first votes allocate no status. A k-entry batch from each
// of the four consensus nodes into one normal node, over sequence numbers it
// has never seen, costs the slot pages and nothing per entry (the pointer
// status this replaced cost one allocation per first vote: 0.25 per entry
// here).
func TestPersistVoteAllocs(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	nn := c.Orgs[1][0]
	const k, runs = 256, 5
	txns := gen.Batch(k)
	var rounds [runs + 1][]*PersistMsg // AllocsPerRun adds a warm-up run
	for r := range rounds {
		for cn := range c.ConsNodes {
			msg := &PersistMsg{Node: cn}
			for i, tx := range txns {
				pe := PersistEntry{Seq: uint64(9001 + r*k + i), TxID: tx.ID(), Consistent: true,
					Writes: []ledger.Write{{Key: "k", Val: []byte("v")}}}
				pe.warmContentKey()
				msg.Entries = append(msg.Entries, pe)
			}
			msg.sign(c.ConsNodes[cn].Sign)
			rounds[r] = append(rounds[r], msg)
		}
	}
	ctx := simnet.NewInjectedContext(c.Net, nn.ep)
	round := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for cn, msg := range rounds[round] {
			nn.bind(ctx, func() { nn.onPersist(c.ConsNodes[cn].Ep.ID(), msg) })
		}
		round++
	})
	if ps := persistAt(nn, 9001+runs*k+k-1); ps == nil || ps.result == nil {
		t.Fatal("the last entry of the last round did not persist")
	}
	if perEntry := allocs / float64(k*len(c.ConsNodes)); perEntry > 0.1 {
		t.Fatalf("%.3f allocations per PERSIST entry (%v per round of %d entries from %d nodes), want <= 0.1",
			perEntry, allocs, k, len(c.ConsNodes))
	}
}

// countingScheme counts the real verifications a run performs.
type countingScheme struct {
	crypto.Scheme
	verifies int
}

func (s *countingScheme) Verify(id crypto.Identity, msg []byte, sig crypto.Signature) bool {
	s.verifies++
	return s.Scheme.Verify(id, msg, sig)
}

// persistBatch builds an unsigned PERSIST batch from consensus node 0.
func persistBatch(txns []*types.Transaction) *PersistMsg {
	msg := &PersistMsg{Node: 0}
	for i, tx := range txns {
		pe := PersistEntry{Seq: 9001 + uint64(i), TxID: tx.ID(), Consistent: true,
			Writes: []ledger.Write{{Key: "k", Val: []byte("v")}}}
		pe.warmContentKey()
		msg.Entries = append(msg.Entries, pe)
	}
	return msg
}

// TestPersistFanoutVerifiesOnce pins the computed-once rule for the PERSIST
// multicast: delivering one signed batch to every normal node performs one
// real verification over bytes serialised once by the sender, and a receiver
// that reads the shared verdict allocates nothing.
func TestPersistFanoutVerifiesOnce(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	counter := &countingScheme{Scheme: c.Scheme}
	c.Scheme = counter
	msg := persistBatch(gen.Batch(8))
	msg.Entries[3].Aborted, msg.Entries[5].Consistent = true, false
	msg.Entries[3].warmContentKey()
	msg.Entries[5].warmContentKey()
	msg.sign(c.ConsNodes[0].Sign)
	if len(msg.signing) != cap(msg.signing) {
		t.Fatalf("signing bytes: len %d, cap %d; the buffer must be sized exactly", len(msg.signing), cap(msg.signing))
	}
	signing := &msg.signing[0]
	from := c.ConsNodes[0].Ep.ID()

	for _, org := range c.Orgs {
		for _, nn := range org {
			nnWithCtx(c, nn, func() { nn.onPersist(from, msg) })
			if ps := persistAt(nn, 9001); ps == nil || ps.vote(msg.Entries[0].contentKey(), 0) != 1 {
				t.Fatalf("org %d did not count the authentic vote", nn.org)
			}
		}
	}
	if counter.verifies != 1 {
		t.Fatalf("%d real verifications for one shared batch, want 1", counter.verifies)
	}
	if &msg.signing[0] != signing {
		t.Fatal("signing bytes rebuilt after sign")
	}

	nn := c.Orgs[1][0]
	ctx := simnet.NewInjectedContext(c.Net, nn.ep)
	deliver := func() { nn.onPersist(from, msg) }
	if allocs := testing.AllocsPerRun(100, func() { nn.bind(ctx, deliver) }); allocs != 0 {
		t.Fatalf("receiving an already-verified batch = %v allocs, want 0 (re-serialised or re-verified?)", allocs)
	}
}

// TestPersistForgeryRejectedByEveryReceiver: the shared verdict belongs to
// one message object. A batch with the same content as an authentic,
// already-accepted one but a junk signature, or a signature by another
// consensus node's key, is rejected by every receiver; re-signing a message
// resets its verdict both ways.
func TestPersistForgeryRejectedByEveryReceiver(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	txns := gen.Batch(2)
	from := c.ConsNodes[0].Ep.ID()
	deliver := func(nn *NormalNode, m *PersistMsg) {
		nnWithCtx(c, nn, func() { nn.onPersist(from, m) })
	}
	badsigs := func() uint64 { return c.Collector.PersistBadSigs }

	authentic := persistBatch(txns)
	authentic.sign(c.ConsNodes[0].Sign)
	first := c.Orgs[0][0]
	deliver(first, authentic)
	if persistAt(first, 9001) == nil {
		t.Fatal("authentic batch rejected")
	}

	junk := persistBatch(txns)
	junk.Sig = crypto.Signature("junk")
	wrongKey := persistBatch(txns)
	wrongKey.sign(c.ConsNodes[1].Sign) // cn1's key over a batch claiming cn0
	for _, org := range c.Orgs {
		for _, nn := range org {
			before := badsigs()
			deliver(nn, junk)
			deliver(nn, wrongKey)
			if got := badsigs() - before; got != 2 {
				t.Fatalf("org %d rejected %d of 2 forged batches", nn.org, got)
			}
			if nn != first && persistAt(nn, 9001) != nil {
				t.Fatalf("org %d counted a forged vote", nn.org)
			}
		}
	}

	// Re-signing resets the verdict: the rejected object becomes acceptable
	// once cn0 really signs it, and the accepted one stops being so.
	second := c.Orgs[1][0]
	wrongKey.sign(c.ConsNodes[0].Sign)
	deliver(second, wrongKey)
	if persistAt(second, 9001) == nil {
		t.Fatal("re-signed batch still rejected: stale invalid verdict")
	}
	authentic.sign(c.ConsNodes[1].Sign)
	before := badsigs()
	deliver(c.Orgs[2][0], authentic)
	if badsigs() != before+1 || persistAt(c.Orgs[2][0], 9001) != nil {
		t.Fatal("batch re-signed with the wrong key still accepted: stale valid verdict")
	}
}

// TestResultVectorVerifiedOnce: a warmed result vector is one shared object,
// so its partitions are really verified once across all consensus nodes and
// every node stores the same echo a cold derivation gives; a warmed vector
// with a junk partition signature is rejected by every consensus node.
func TestResultVectorVerifiedOnce(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	counter := &countingScheme{Scheme: c.Scheme}
	c.Scheme = counter
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1]
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	const seq = uint64(9001)
	cold := mkVector(t, c, seq, tx, "A")
	good := cold
	good.warm(c.Orgs[0][0].base)
	forged := mkVector(t, c, seq+1, tx, "A")
	forged.Vector[0].Sig = crypto.Signature("junk")
	forged.warm(c.Orgs[0][0].base)

	counter.verifies = 0
	for _, cn := range c.ConsNodes {
		cnWithCtx(c, cn, func() {
			cn.agreed[seq], cn.agreed[seq+1] = tx.ID(), tx.ID()
			cn.evaluateResult(&good)
			cn.evaluateResult(&forged)
		})
		if cn.persisted[seq+1] != nil {
			t.Fatalf("consensus node %d stored a vector with a junk partition signature", cn.Idx)
		}
		pe := cn.persisted[seq]
		if pe == nil {
			t.Fatalf("consensus node %d rejected the authentic vector", cn.Idx)
		}
		if want := cold.derive().persist; pe.contentKey() != want.contentKey() || pe.VecDigest != want.VecDigest {
			t.Fatalf("consensus node %d stored an echo that differs from the cold derivation", cn.Idx)
		}
	}
	if counter.verifies != 2 {
		t.Fatalf("%d real partition verifications for two shared one-org vectors, want 2", counter.verifies)
	}
}
