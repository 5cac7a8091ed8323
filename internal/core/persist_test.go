package core

import (
	"slices"
	"testing"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// orgResultBytes is what a delegate signs for one partition, in a fresh
// slice.
func orgResultBytes(seq uint64, id types.TxID, org string, digest crypto.Digest, aborted, inconsistent bool) []byte {
	return appendOrgResult(nil, seq, id, org, digest, aborted, inconsistent)
}

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

// warmVector attaches the memo as the assembling delegate of c does.
func warmVector(e *ResultEntry, c *Cluster) { e.warm(c.Orgs[0][0].base, c.Hashes) }

// echoes points at each of es, as a PersistMsg carries them.
func echoes(es ...PersistEntry) []*PersistEntry {
	out := make([]*PersistEntry, len(es))
	for i := range es {
		out[i] = &es[i]
	}
	return out
}

// storedEcho returns the echo cn accepted for seq (localStore), or nil.
func storedEcho(cn *ConsNode, seq uint64) *PersistEntry {
	if cs := cn.pool.consAt(seq, false); cs != nil {
		return cs.persisted
	}
	return nil
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
	if ns := nn.pool.noted(seq); ns != nil && ns.persist.first != nil {
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
		sr := storedEcho(cn, seq)
		if sr == nil {
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
		msg := &PersistMsg{Node: cnIdx, Entries: echoes(entry)}
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
	msg := &PersistMsg{Node: 0, Entries: echoes(entry)}
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
	msg := &PersistMsg{Node: 0, Entries: echoes(entry), Sig: crypto.Signature("junk")}
	nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[0].Ep.ID(), msg) })
	if persistAt(nn, 9001) != nil {
		t.Fatal("forged persist batch processed")
	}
}

// TestPersistVoteBitmask: at every cluster size — including consensus-node
// indices past the first 64-bit word — vote counts equal a plain
// set-per-key tally, duplicates count once, a copy of the first echo counts
// with it by content, a diverging key is tallied apart, and the honest
// single-echo path allocates nothing.
func TestPersistVoteBitmask(t *testing.T) {
	echo := func(val string) *PersistEntry {
		return &PersistEntry{Seq: 1, Consistent: true, Writes: []ledger.Write{{Key: "k", Val: []byte(val)}}}
	}
	shared, copied, other := echo("honest"), echo("honest"), echo("diverging")
	for _, n := range []int{4, 64, 65, 97} {
		ps := new(persistStatus)
		ref := map[crypto.Digest]map[int]bool{shared.contentKey(): {}, other.contentKey(): {}}
		vote := func(e *PersistEntry, node int) {
			t.Helper()
			k := e.contentKey()
			ref[k][node] = true
			if got, want := ps.vote(e, node), len(ref[k]); got != want {
				t.Fatalf("n=%d: vote(%v, %d) = %d, want %d", n, k, node, got, want)
			}
		}
		for i := 0; i < n; i++ {
			node := (i*7 + 3) % n // 7 is coprime to every n here: each node once, scrambled
			vote(shared, node)
			vote(copied, node) // a repeated vote, by another object, counts once
			if i%5 == 0 {
				vote(other, node)
			}
		}
		if len(ps.spill) != 1 || ps.spill[other.contentKey()] == nil {
			t.Fatalf("n=%d: spill map holds %d keys, want only the diverging one", n, len(ps.spill))
		}

		honest := new(persistStatus)
		allocs := testing.AllocsPerRun(10, func() {
			for node := 0; node < n; node++ {
				honest.vote(shared, node)
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
				msg.Entries = append(msg.Entries, &pe)
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
		msg.Entries = append(msg.Entries, &pe)
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
	if want := 1 + 40*len(msg.Entries); len(msg.signing) != want {
		t.Fatalf("signing bytes: %d for %d entries, want %d (node, then sequence number and content key per entry)",
			len(msg.signing), len(msg.Entries), want)
	}
	signing := &msg.signing[0]
	from := c.ConsNodes[0].Ep.ID()

	for _, org := range c.Orgs {
		for _, nn := range org {
			nnWithCtx(c, nn, func() { nn.onPersist(from, msg) })
			if ps := persistAt(nn, 9001); ps == nil || ps.vote(msg.Entries[0], 0) != 1 {
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
	warmVector(&good, c)
	forged := mkVector(t, c, seq+1, tx, "A")
	forged.Vector[0].Sig = crypto.Signature("junk")
	warmVector(&forged, c)

	counter.verifies = 0
	for _, cn := range c.ConsNodes {
		cnWithCtx(c, cn, func() {
			cn.Proposed(0, valueFor(seq, tx))
			cn.Proposed(0, valueFor(seq+1, tx))
			cn.evaluateResult(&good)
			cn.evaluateResult(&forged)
		})
		if storedEcho(cn, seq+1) != nil {
			t.Fatalf("consensus node %d stored a vector with a junk partition signature", cn.Idx)
		}
		pe := storedEcho(cn, seq)
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

// TestPersistFanoutSharesEcho: on setting B's 97 consensus nodes (f = 32) one
// warmed result vector becomes one echo object. Every consensus node stores
// and sends the delegate's memo object, not a copy, and every normal node
// adopts that very object once 2f+1 echoes arrived.
func TestPersistFanoutSharesEcho(t *testing.T) {
	cfg := smallConfig()
	cfg.NumOrgs, cfg.NumConsensus, cfg.F = 4, 97, 32
	c, gen := buildCluster(t, cfg, defaultWorkload())
	var sent []*PersistMsg
	c.Net.DropFilter = func(_, _ simnet.NodeID, msg simnet.Message) bool {
		if pm, ok := msg.(*PersistMsg); ok && (len(sent) == 0 || sent[len(sent)-1] != pm) {
			sent = append(sent, pm)
		}
		return true
	}
	tx := gen.Next()
	const seq = uint64(9001)
	vec := mkVector(t, c, seq, tx, "A")
	warmVector(&vec, c)
	memo := &vec.memo.persist
	results := &ResultMsg{Entries: []ResultEntry{vec}}
	for _, cn := range c.ConsNodes {
		cnWithCtx(c, cn, func() {
			cn.onResults(results) // waits for the proposal
			cn.Proposed(0, valueFor(seq, tx))
			cn.flushPersist()
		})
	}
	if len(sent) != len(c.ConsNodes) {
		t.Fatalf("%d PERSIST batches from %d consensus nodes", len(sent), len(c.ConsNodes))
	}
	for _, org := range c.Orgs {
		for _, nn := range org {
			for _, msg := range sent {
				if msg.Entries[0] != memo {
					t.Fatalf("consensus node %d sent a copy of the echo", msg.Node)
				}
				nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[msg.Node].Ep.ID(), msg) })
			}
			if ps := persistAt(nn, seq); ps == nil || ps.result != memo {
				t.Fatalf("org %d did not adopt the delegate's echo object", nn.org)
			}
		}
	}
}

// TestConsNodeSlotsOutliveDroppedPayload: a consensus node's per-sequence
// state shares its page with pooled payloads, and outlives them. A squatter is
// pooled at s, the echo for s+1 is stored, then agreement on another hash at s
// drops the squatter, leaving the page without payloads: the stored echo and
// the agreed hash at s are still there.
func TestConsNodeSlotsOutliveDroppedPayload(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	cn := c.ConsNodes[1]
	squatter, agreed, next := gen.Next(), gen.Next(), gen.Next()
	const s = uint64(9000)
	vec := mkVector(t, c, s+1, next, "A")
	from := c.Orgs[0][0].ep.ID()
	var replies []*PersistMsg
	c.Net.DropFilter = func(_, _ simnet.NodeID, msg simnet.Message) bool {
		if pm, ok := msg.(*PersistMsg); ok {
			replies = append(replies, pm)
		}
		return true
	}
	cnWithCtx(c, cn, func() {
		cn.onSeqBatchFrom(-1, &SeqBatch{Txns: []types.SequencedTx{{Seq: s, Tx: squatter}}})
		cn.Proposed(0, valueFor(s+1, next))
		cn.evaluateResult(&vec)
		cn.Deliver(0, valueFor(s, agreed), &types.Certificate{})
		if got, _ := cn.pool.at(s); got != nil {
			t.Fatal("agreement on another hash left the squatter pooled")
		}
		cn.onPersistFetch(from, &PersistFetchReq{Seqs: []uint64{s + 1}})
	})
	if len(replies) != 1 || len(replies[0].Entries) != 1 || replies[0].Entries[0] != storedEcho(cn, s+1) || storedEcho(cn, s+1) == nil {
		t.Fatal("the stored echo went with the dropped payload's page")
	}
	if cs := cn.pool.consAt(s, false); cs == nil || !cs.agreed || cs.hash != c.Hashes.Intern(agreed.ID()) {
		t.Fatal("the agreed hash went with the dropped payload's page")
	}
}

// TestPersistSignatureCoversEntry: a PERSIST signature covers every field of
// every entry, the entries' order and the sending node. A batch consensus
// node 0 signed is rebuilt as a fresh object, so nothing is cached (no signing
// bytes, content key or verdict), and keeps the original signature: the
// rebuild verifies, and a rebuild with any one field changed does not.
func TestPersistSignatureCoversEntry(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	txns := gen.Batch(2)
	entries := func() []PersistEntry {
		es := make([]PersistEntry, len(txns))
		for i, tx := range txns {
			es[i] = PersistEntry{Seq: 9001 + uint64(i), TxID: tx.ID(), VecDigest: crypto.Digest{byte(1 + i)},
				Consistent: true, ResultDigest: crypto.Digest{byte(10 + i)},
				Writes: []ledger.Write{{Key: "k", Val: []byte("v")}}}
		}
		return es
	}
	signed := &PersistMsg{Node: 0, Entries: echoes(entries()...)}
	signed.sign(c.ConsNodes[0].Sign)
	rebuild := func(change func(*PersistMsg)) *PersistMsg {
		m := &PersistMsg{Node: signed.Node, Entries: echoes(entries()...), Sig: signed.Sig}
		change(m)
		return m
	}
	if !rebuild(func(*PersistMsg) {}).authentic(c.Scheme) {
		t.Fatal("the unchanged rebuild of a signed batch is rejected")
	}
	for _, tc := range []struct {
		field  string
		change func(*PersistMsg)
	}{
		{"Seq", func(m *PersistMsg) { m.Entries[0].Seq++ }},
		{"TxID", func(m *PersistMsg) { m.Entries[1].TxID[31] ^= 1 }},
		{"VecDigest", func(m *PersistMsg) { m.Entries[0].VecDigest[0] ^= 1 }},
		{"ResultDigest", func(m *PersistMsg) { m.Entries[1].ResultDigest[0] ^= 1 }},
		{"write key", func(m *PersistMsg) { m.Entries[0].Writes[0].Key = "j" }},
		{"write value", func(m *PersistMsg) { m.Entries[1].Writes[0].Val = []byte("w") }},
		{"Aborted", func(m *PersistMsg) { m.Entries[0].Aborted = true }},
		{"Consistent", func(m *PersistMsg) { m.Entries[1].Consistent = false }},
		{"entry order", func(m *PersistMsg) { m.Entries[0], m.Entries[1] = m.Entries[1], m.Entries[0] }},
		{"Node", func(m *PersistMsg) { m.Node = 1 }},
	} {
		if rebuild(tc.change).authentic(c.Scheme) {
			t.Errorf("a batch with %s changed still carries a valid signature", tc.field)
		}
	}
}

// TestDeliverDecodesItsOwnValue: a consensus node reuses the ordering Proposed
// decoded for a consensus sequence only when the agreed value is that very
// slice. Agreement there on another ordering, on a null fill or on a copy of
// the proposed bytes delivers the agreed value's own decoding; agreement on
// the proposed slice decodes nothing again, so Proposed and Deliver of one
// 100-entry proposal allocate the two ordering slices once.
func TestDeliverDecodesItsOwnValue(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	cn := c.ConsNodes[(c.policy.Leader(0)+1)%len(c.ConsNodes)] // delivers without disseminating
	txns := gen.Batch(100)
	value := func(from uint64, txns []*types.Transaction) consensus.Value {
		seqs, hashes := make([]uint64, len(txns)), make([]types.TxID, len(txns))
		for i, tx := range txns {
			seqs[i], hashes[i] = from+uint64(i), tx.ID()
		}
		o := types.EncodeOrdering(seqs, hashes)
		return consensus.Value{Digest: types.OrderingDigest(o), Data: o}
	}
	// deliver runs Proposed(a) then Deliver(b) at the node's next consensus
	// sequence and returns the ordering Proposed decoded and the block stored.
	deliver := func(a, b consensus.Value) (proposed []uint64, blk *types.Block) {
		s := cn.chainHeight
		cnWithCtx(c, cn, func() {
			cn.Proposed(s, a)
			proposed = cn.proposals[s].seqs
			cn.Deliver(s, b, &types.Certificate{Number: s})
		})
		return proposed, cn.blocks.Get(s)
	}

	a := value(1000, txns[:2])
	for _, tc := range []struct {
		name string
		b    consensus.Value
		want []uint64
	}{
		{"another ordering", value(2000, txns[2:4]), []uint64{2000, 2001}},
		{"a null fill", consensus.Value{}, nil},
		{"a copy of the proposed bytes", consensus.Value{Digest: a.Digest, Data: slices.Clone(a.Data)}, []uint64{1000, 1001}},
	} {
		proposed, blk := deliver(a, tc.b)
		if blk == nil || !slices.Equal(blk.Seqs, tc.want) {
			t.Fatalf("agreement on %s: block %v, want sequence numbers %v", tc.name, blk, tc.want)
		}
		if len(blk.Seqs) > 0 && &blk.Seqs[0] == &proposed[0] {
			t.Fatalf("agreement on %s delivered the ordering decoded for the proposal", tc.name)
		}
	}
	if proposed, blk := deliver(a, a); &blk.Seqs[0] != &proposed[0] {
		t.Fatal("agreement on the proposed slice decoded it again")
	}

	// One 100-entry proposal per run at a fresh consensus sequence and fresh,
	// page-aligned sequence numbers, agreed as the proposed slice or a copy.
	const runs = 20
	allocs := func(from uint64, agreed func(consensus.Value) consensus.Value) float64 {
		vals := make([]consensus.Value, runs+1) // AllocsPerRun adds a warm-up run
		for i := range vals {
			vals[i] = value(from+uint64(128*i), txns)
		}
		copies := make([]consensus.Value, len(vals))
		for i, v := range vals {
			copies[i] = agreed(v)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			deliver(vals[i], copies[i])
			i++
		})
	}
	shared := allocs(1<<20, func(v consensus.Value) consensus.Value { return v })
	copied := allocs(1<<21, func(v consensus.Value) consensus.Value {
		return consensus.Value{Digest: v.Digest, Data: slices.Clone(v.Data)}
	})
	if copied-shared != 2 {
		t.Fatalf("Proposed + Deliver of a 100-entry proposal: %v allocations agreeing on the proposed slice, %v on a copy; want the copy's second decoding (2) to be the only difference",
			shared, copied)
	}
}

// TestVectorApproved: a result vector is approved when it has one partition
// per related organization and covers every one of them, in any order; one
// that repeats an organization and so misses another is not.
func TestVectorApproved(t *testing.T) {
	tx := &types.Transaction{Orgs: []string{"org0", "org1", "org2"}}
	vec := func(orgs ...string) []OrgResult {
		out := make([]OrgResult, len(orgs))
		for i, o := range orgs {
			out[i].Org = o
		}
		return out
	}
	for _, tc := range []struct {
		name string
		vec  []OrgResult
		want bool
	}{
		{"every organization", vec("org0", "org1", "org2"), true},
		{"another order", vec("org2", "org0", "org1"), true},
		{"one repeated, one missing", vec("org0", "org1", "org1"), false},
		{"one missing", vec("org0", "org2"), false},
		{"one unrelated", vec("org0", "org1", "org2", "org3"), false},
		{"an unrelated one instead", vec("org0", "org1", "org3"), false},
		{"none", nil, false},
	} {
		if got := vectorApproved(tx, tc.vec); got != tc.want {
			t.Errorf("%s: approved %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestForgedOrgResultNeverEntersVector: the corresponding organization's
// delegate receives a badly signed partition of T from T's other related
// organization before T's payload, then the payload, which it executes at
// once. The signature needs no payload to check, so the forged partition is
// dropped on arrival: the vector waits, and the first ResultMsg carries the
// genuine partition once it arrives.
func TestForgedOrgResultNeverEntersVector(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	tx := gen.Next()
	for len(tx.Orgs) != 2 {
		tx = gen.Next()
	}
	oc, other := c.Orgs[types.OrgIndex(tx.Orgs[0])][0], c.Orgs[types.OrgIndex(tx.Orgs[1])][0]
	var sent []*ResultMsg
	c.Net.DropFilter = func(_, _ simnet.NodeID, msg simnet.Message) bool {
		if rm, ok := msg.(*ResultMsg); ok && (len(sent) == 0 || sent[len(sent)-1] != rm) {
			sent = append(sent, rm)
		}
		return true
	}
	batch := &SeqBatch{Txns: []types.SequencedTx{{Seq: 1, Tx: tx}}}
	// The other organization's genuine partition, as its delegate routes it.
	nnWithCtx(c, other, func() { other.onSeqBatch(batch) })
	genuine := other.orgOut[oc.org]
	if len(genuine) != 1 {
		t.Fatalf("%s routed %d partitions of T to %s, want 1", tx.Orgs[1], len(genuine), tx.Orgs[0])
	}
	forged := genuine[0]
	forged.Result.Writes = []ledger.Write{{Key: "k", Val: []byte("forged")}}
	forged.Result.Digest = (&ledger.RWSet{Writes: forged.Result.Writes}).Digest()
	forged.Result.Sig = crypto.Signature("junk")

	nnWithCtx(c, oc, func() {
		oc.onOrgResults(&OrgResultMsg{Entries: []OrgResultEntry{forged}})
		oc.onSeqBatch(batch)
		oc.flushResults()
	})
	if len(sent) != 0 {
		t.Fatalf("the vector shipped before %s's genuine partition arrived", tx.Orgs[1])
	}
	nnWithCtx(c, oc, func() {
		oc.onOrgResults(&OrgResultMsg{Entries: genuine})
		oc.flushResults()
	})
	if len(sent) != 1 || len(sent[0].Entries) != 1 || len(sent[0].Entries[0].Vector) != 2 {
		t.Fatalf("%d result batches after the genuine partition, want one with one two-partition vector", len(sent))
	}
	for _, r := range sent[0].Entries[0].Vector {
		if r.Org == tx.Orgs[1] && r.Digest != genuine[0].Result.Digest {
			t.Fatalf("the vector carries a partition of %s other than the genuine one", r.Org)
		}
	}
}
