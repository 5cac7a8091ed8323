package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// Model test for a consensus node's per-sequence bookkeeping (§4.4, Algo 1
// lines 16-18): what it learnt was proposed and agreed at each sequence number,
// which result vectors wait for one, and the one PERSIST echo it stores per
// sequence number (localStore). Seeded random runs drive every consensus node
// of a cluster with the same shared messages, as the network does, and after
// every step compare the echoes queued for the next flush, the replies to
// PersistFetchReq and the current view's mismatch count with a reference that
// keeps one plain map per fact.

// consPlanEntry is one (sequence number, transaction) pair a planned block
// orders.
type consPlanEntry struct {
	seq uint64
	tx  *types.Transaction
}

type consPlanBlock struct {
	view    uint64
	entries []consPlanEntry
	value   consensus.Value
}

// refCons is the reference for one consensus node.
type refCons struct {
	c          *Cluster
	cn         *ConsNode // read for its replica's current view only
	proposed   map[uint64]types.TxID
	agreed     map[uint64]types.TxID
	agreedView map[uint64]uint64
	buffered   map[uint64][]*ResultEntry
	persisted  map[uint64]PersistEntry
	delivered  map[uint64]*consPlanBlock
	height     uint64
	out        []PersistEntry
	viewMis    int
	// what the run exercised, summed over nodes
	late, rejectedSecond, mismatches int
}

func newRefCons(c *Cluster, cn *ConsNode) *refCons {
	return &refCons{c: c, cn: cn,
		proposed:   make(map[uint64]types.TxID),
		agreed:     make(map[uint64]types.TxID),
		agreedView: make(map[uint64]uint64),
		buffered:   make(map[uint64][]*ResultEntry),
		persisted:  make(map[uint64]PersistEntry),
		delivered:  make(map[uint64]*consPlanBlock),
	}
}

// authentic is the specification of a vector's partition checks: each
// partition's writes hash to its digest, signed by its organization.
func (r *refCons) authentic(e *ResultEntry) bool {
	for _, p := range e.Vector {
		if (&ledger.RWSet{Writes: p.Writes, Aborted: p.Aborted}).Digest() != p.Digest ||
			!r.c.Scheme.Verify(crypto.Identity(p.Org), orgResultBytes(e.Seq, e.TxID, p.Org, p.Digest, p.Aborted, p.Inconsistent), p.Sig) {
			return false
		}
	}
	return true
}

func (r *refCons) evaluate(e *ResultEntry, buffered bool) {
	h, ok := r.agreed[e.Seq]
	if !ok {
		h, ok = r.proposed[e.Seq]
	}
	if !ok || h != e.TxID || !r.authentic(e) {
		return
	}
	if _, stored := r.persisted[e.Seq]; stored {
		r.rejectedSecond++
		return
	}
	if buffered {
		r.late++
	}
	pe := e.derive().persist
	r.persisted[e.Seq] = pe
	r.out = append(r.out, pe)
}

func (r *refCons) evaluateBuffered(seqs []uint64) {
	for _, s := range seqs {
		buf := r.buffered[s]
		delete(r.buffered, s)
		for _, e := range buf {
			r.evaluate(e, true)
		}
	}
}

func (r *refCons) propose(b *consPlanBlock) {
	var seqs []uint64
	for _, e := range b.entries {
		if _, ok := r.proposed[e.seq]; !ok {
			r.proposed[e.seq] = e.tx.ID()
		}
		seqs = append(seqs, e.seq)
	}
	r.evaluateBuffered(seqs)
}

func (r *refCons) deliver(number uint64, b *consPlanBlock) {
	r.delivered[number] = b
	for {
		blk, ok := r.delivered[r.height]
		if !ok {
			return
		}
		var seqs []uint64
		for _, e := range blk.entries {
			r.agreed[e.seq], r.agreedView[e.seq] = e.tx.ID(), blk.view
			seqs = append(seqs, e.seq)
		}
		r.evaluateBuffered(seqs)
		delete(r.delivered, r.height)
		r.height++
	}
}

func (r *refCons) onResults(entries []ResultEntry) {
	for i := range entries {
		e := &entries[i]
		if h, ok := r.agreed[e.Seq]; ok {
			if h == e.TxID {
				r.evaluate(e, false)
			} else if r.agreedView[e.Seq] == r.cn.Rep.View() {
				r.viewMis++
				r.mismatches++
			}
		} else {
			r.buffered[e.Seq] = append(r.buffered[e.Seq], e)
		}
	}
}

// consRun drives every consensus node of a small cluster.
type consRun struct {
	t         *testing.T
	c         *Cluster
	rng       *rand.Rand
	refs      []*refCons
	blocks    []*consPlanBlock
	delivered []bool
	others    []*types.Transaction // never a planned transaction (other)
	sent      []simnet.Message     // what the driven nodes sent since the last step
	fetches   int                  // fetch replies that carried entries
}

func newConsRun(t *testing.T, seed int64) *consRun {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	r := &consRun{t: t, c: c, rng: rand.New(rand.NewSource(seed))}
	// Nothing is delivered: what the nodes send is only recorded.
	c.Net.DropFilter = func(_, _ simnet.NodeID, msg simnet.Message) bool {
		r.sent = append(r.sent, msg)
		return true
	}
	for _, cn := range c.ConsNodes {
		r.refs = append(r.refs, newRefCons(c, cn))
	}
	// Ten blocks, sequence numbers consecutive from 58 (crossing 64 and 128).
	// After block 4 they jump by 10·BlockSize+1 as a view change makes them,
	// and blocks from there on were agreed in view 1. Block 3 is a null block,
	// block 7 also orders a crafted 1<<60, and block 8 re-orders a sequence
	// number of block 2 with another transaction.
	seq := uint64(58)
	for number := 0; number < 10; number++ {
		b := &consPlanBlock{}
		if number >= 5 {
			b.view = 1
		}
		if number == 5 {
			seq += uint64(10*cfg.BlockSize) + 1
		}
		for i := 0; number != 3 && i < 3+r.rng.Intn(5); i++ {
			b.entries = append(b.entries, consPlanEntry{seq: seq, tx: gen.Next()})
			seq++
		}
		if number == 7 {
			b.entries = append(b.entries, consPlanEntry{seq: 1 << 60, tx: gen.Next()})
		}
		if number == 8 {
			b.entries = append(b.entries, consPlanEntry{seq: r.blocks[2].entries[0].seq, tx: gen.Next()})
		}
		b.value = r.value(b.entries)
		r.blocks = append(r.blocks, b)
	}
	r.delivered = make([]bool, len(r.blocks))
	for i := 0; i < 6; i++ {
		r.others = append(r.others, gen.Next())
	}
	return r
}

func (r *consRun) value(entries []consPlanEntry) consensus.Value {
	if len(entries) == 0 {
		return consensus.Value{}
	}
	var seqs []uint64
	var hashes []types.TxID
	for _, e := range entries {
		seqs, hashes = append(seqs, e.seq), append(hashes, e.tx.ID())
	}
	ordering := types.EncodeOrdering(seqs, hashes)
	return consensus.Value{Digest: types.OrderingDigest(ordering), Data: ordering}
}

// each runs fn on every consensus node inside an injected activation, then
// ref on its reference, and compares the two.
func (r *consRun) each(what string, fn func(*ConsNode), ref func(*refCons)) {
	r.t.Helper()
	for i, cn := range r.c.ConsNodes {
		r.sent = r.sent[:0]
		cnWithCtx(r.c, cn, func() { fn(cn) })
		ref(r.refs[i])
		r.check(what, i)
	}
}

func (r *consRun) check(what string, i int) {
	r.t.Helper()
	cn, ref := r.c.ConsNodes[i], r.refs[i]
	what = fmt.Sprintf("%s, consensus node %d", what, i)
	if cn.viewMis != ref.viewMis {
		r.t.Fatalf("%s: viewMis %d; reference %d", what, cn.viewMis, ref.viewMis)
	}
	if len(cn.persistOut) != len(ref.out) {
		r.t.Fatalf("%s: %d echoes queued; reference %d", what, len(cn.persistOut), len(ref.out))
	}
	for j := range ref.out {
		want := &ref.out[j]
		if cn.persistOut[j].Seq != want.Seq || cn.persistOut[j].TxID != want.TxID ||
			cn.persistOut[j].VecDigest != want.VecDigest || cn.persistOut[j].contentKey() != want.contentKey() {
			r.t.Fatalf("%s: queued echo %d is for %d:%x; reference %d:%x", what, j,
				cn.persistOut[j].Seq, cn.persistOut[j].TxID[:3], want.Seq, want.TxID[:3])
		}
	}
}

// near draws a block number, three times in four at or just past the lowest
// block not delivered yet.
func (r *consRun) near() int {
	head := 0
	for head < len(r.blocks)-1 && r.delivered[head] {
		head++
	}
	if r.rng.Intn(4) != 0 {
		return min(head+r.rng.Intn(3), len(r.blocks)-1)
	}
	return r.rng.Intn(len(r.blocks))
}

// entry draws one planned entry near the head.
func (r *consRun) entry() consPlanEntry {
	for {
		if es := r.blocks[r.near()].entries; len(es) > 0 {
			return es[r.rng.Intn(len(es))]
		}
	}
}

// other is the transaction conflicting proposals and vectors name at seq.
func (r *consRun) other(seq uint64) *types.Transaction { return r.others[seq%uint64(len(r.others))] }

func (r *consRun) propose(b *consPlanBlock, what string) {
	r.each(what, func(cn *ConsNode) { cn.Proposed(0, b.value) }, func(ref *refCons) { ref.propose(b) })
}

func (r *consRun) deliver(number int) {
	r.delivered[number] = true
	b := r.blocks[number]
	cert := &types.Certificate{Number: uint64(number), View: b.view, Digest: b.value.Digest}
	r.each(fmt.Sprintf("deliver %d", number), func(cn *ConsNode) { cn.Deliver(uint64(number), b.value, cert) },
		func(ref *refCons) { ref.deliver(uint64(number), b) })
}

// results delivers one ResultMsg, the same object to every consensus node;
// each vector is warmed as the assembling delegate does, or not.
func (r *consRun) results(what string, entries []ResultEntry) {
	for i := range entries {
		if r.rng.Intn(2) == 0 {
			warmVector(&entries[i], r.c)
		}
		what += fmt.Sprintf(" %d:%x", entries[i].Seq, entries[i].TxID[:3])
	}
	msg := &ResultMsg{Entries: entries}
	r.each(what, func(cn *ConsNode) { cn.onResults(msg) },
		func(ref *refCons) { ref.onResults(entries) })
}

// fetch asks every consensus node for its stored echoes of seqs and compares
// the reply with the reference's.
func (r *consRun) fetch(seqs []uint64) {
	from := r.c.Orgs[0][0].ep.ID()
	req := &PersistFetchReq{Seqs: seqs}
	for i, cn := range r.c.ConsNodes {
		r.sent = r.sent[:0]
		cnWithCtx(r.c, cn, func() { cn.onPersistFetch(from, req) })
		var want []PersistEntry
		for _, s := range seqs {
			if pe, ok := r.refs[i].persisted[s]; ok {
				want = append(want, pe)
			}
		}
		what := fmt.Sprintf("fetch %v, consensus node %d", seqs, i)
		if len(want) == 0 {
			if len(r.sent) != 0 {
				r.t.Fatalf("%s: replied with nothing to send", what)
			}
			continue
		}
		if len(r.sent) != 1 {
			r.t.Fatalf("%s: sent %d messages, want one reply", what, len(r.sent))
		}
		reply, ok := r.sent[0].(*PersistMsg)
		if !ok || reply.Node != i || !reply.authentic(r.c.Scheme) || len(reply.Entries) != len(want) {
			r.t.Fatalf("%s: reply %T is not node %d's signed batch of %d echoes", what, r.sent[0], i, len(want))
		}
		for j := range want {
			if reply.Entries[j].Seq != want[j].Seq || reply.Entries[j].contentKey() != want[j].contentKey() {
				r.t.Fatalf("%s: reply entry %d is for %d; reference %d", what, j, reply.Entries[j].Seq, want[j].Seq)
			}
		}
		r.fetches++
	}
}

func (r *consRun) step() {
	switch k := r.rng.Intn(100); {
	case k < 14: // a proposal, possibly repeated
		b := r.blocks[r.near()]
		r.propose(b, fmt.Sprintf("propose %d", len(b.entries)))
	case k < 22: // a proposal that names another transaction at one of its sequence numbers
		b := *r.blocks[r.near()]
		if len(b.entries) == 0 {
			return
		}
		b.entries = append([]consPlanEntry(nil), b.entries...)
		j := r.rng.Intn(len(b.entries))
		b.entries[j].tx = r.other(b.entries[j].seq)
		b.value = r.value(b.entries)
		r.propose(&b, "propose-other")
	case k < 32: // an agreement, in or out of order
		if number := r.near(); !r.delivered[number] {
			r.deliver(number)
		}
	case k < 62: // honest vectors
		var es []ResultEntry
		for n := 1 + r.rng.Intn(4); len(es) < n; {
			e := r.entry()
			es = append(es, mkVector(r.t, r.c, e.seq, e.tx, "A"))
		}
		r.results("results", es)
	case k < 70: // a second, different vector for a planned transaction
		e := r.entry()
		r.results("second", []ResultEntry{mkVector(r.t, r.c, e.seq, e.tx, "B")})
	case k < 80: // a vector for a transaction the sequence number does not order
		e := r.entry()
		r.results("conflict", []ResultEntry{mkVector(r.t, r.c, e.seq, r.other(e.seq), "A")})
	case k < 84: // a vector with a partition signature that does not verify
		e := r.entry()
		v := mkVector(r.t, r.c, e.seq, e.tx, "A")
		v.Vector[0].Sig = crypto.Signature("junk")
		r.results("forged", []ResultEntry{v})
	case k < 94:
		var seqs []uint64
		for n := 1 + r.rng.Intn(4); len(seqs) < n; {
			seqs = append(seqs, r.entry().seq)
		}
		r.fetch(seqs)
	default: // the flush timer
		r.each("flush", func(cn *ConsNode) { cn.flushPersist() }, func(ref *refCons) { ref.out = nil })
	}
}

// finish agrees every block and delivers an honest vector for every entry, so
// every sequence number ends with an echo.
func (r *consRun) finish() {
	for number := range r.blocks {
		if !r.delivered[number] {
			r.deliver(number)
		}
	}
	for _, b := range r.blocks {
		for _, e := range b.entries {
			r.results("final", []ResultEntry{mkVector(r.t, r.c, e.seq, e.tx, "A")})
		}
	}
	var all []uint64
	for _, b := range r.blocks {
		for _, e := range b.entries {
			all = append(all, e.seq)
		}
	}
	r.fetch(all)
	for i, ref := range r.refs {
		if len(ref.persisted) == 0 || ref.height != uint64(len(r.blocks)) {
			r.t.Fatalf("consensus node %d stored %d echoes at height %d", i, len(ref.persisted), ref.height)
		}
	}
}

func TestConsNodeSeqModel(t *testing.T) {
	var late, second, mis, fetches int
	for seed := int64(1); seed <= 3; seed++ {
		r := newConsRun(t, seed)
		for op := 0; op < 300; op++ {
			r.step()
		}
		r.finish()
		for _, ref := range r.refs {
			late, second, mis = late+ref.late, second+ref.rejectedSecond, mis+ref.mismatches
		}
		fetches += r.fetches
	}
	// The random runs must reach every path they are there for.
	if late == 0 || second == 0 || mis == 0 || fetches == 0 {
		t.Fatalf("buffered vectors persisted %d, second vectors refused %d, current-view mismatches %d, fetch replies %d: a path went unexercised",
			late, second, mis, fetches)
	}
}
