package core

import (
	"math/bits"
	"time"

	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/types"
)

// txPool is a node's index of sequenced transactions (DESIGN.md §7.1): one
// record per transaction hash and one slot per sequence number. The first
// transaction received for a sequence number wins (§4.1 step 1); duplicate
// hashes are rejected (replay check, step 2), committed ones forever.
type txPool struct {
	// hashes gives every hash the cluster has seen an ordinal; recs is this
	// node's record per ordinal. The zero record is a hash the node never
	// heard of, whoever else interned it.
	hashes *dense.Table[types.TxID]
	recs   dense.Pages[txRec]
	// Sequence numbers run consecutively within a term and jump at a view
	// change, but are unauthenticated (§4.1): slots live in pages keyed by
	// seq>>pageBits, so memory follows the numbers in use whatever they are.
	pages map[uint64]*page
	last  *page // the page of the previous access
	spare []*page
}

// txRec is what a node remembers about one transaction hash. Records are
// never freed: a committed hash is barred for good.
type txRec struct {
	seq       uint64 // where the payload is pooled, while pooled
	agreedSeq uint64 // where consensus ordered the hash, once agreed (normal nodes)
	pooled    bool
	committed bool
	agreed    bool // in an agreed block: authoritative for its slot, it evicts a squatter
	checked   bool // §4.1 signature check done; invalid holds the outcome
	invalid   bool
}

const pageBits, pageSize, pageMask = 6, 1 << 6, 1<<6 - 1

// slot is what every node keeps per sequence number: the payload, its record
// and when it arrived (-1 once the verify-and-execute phase was measured).
type slot struct {
	tx      *types.Transaction
	rec     *txRec
	arrival time.Duration
}

// nodeSlot is what a normal node keeps besides, by value: whom it executed
// speculatively at the sequence number (nil: nobody), at the delegate the
// signed partition, kept to be retransmitted if the persist round stalls
// under packet loss, and the PERSIST tally (empty until its first vote).
type nodeSlot struct {
	spec    *txRec
	orgRes  *OrgResult
	persist persistStatus
}

// consSlot is what a consensus node keeps besides, never recycled: the hash
// proposed at the sequence number until one is agreed, then the agreed hash
// and the view it was agreed in; the echo of the one result vector it accepted
// (localStore(), §4.4, Lemma 5.2); and the vectors that wait for a hash.
type consSlot struct {
	hash           types.TxID
	view           uint64
	hashed, agreed bool
	persisted      *PersistEntry
	waiting        []*ResultEntry
}

// page holds pageSize consecutive sequence numbers; held and noted have a bit
// per payload and per non-zero node slot. A page with none, and no consensus
// node slots, is recycled.
type page struct {
	key, held, noted uint64
	slots            [pageSize]slot
	node             *[pageSize]nodeSlot // normal nodes only, allocated on first use
	cons             *[pageSize]consSlot // consensus nodes only, likewise
}

// newTxPool returns a pool over a hash table of its own; a cluster's nodes
// share the cluster's (newTxPoolOn).
func newTxPool() *txPool { return newTxPoolOn(dense.NewTable[types.TxID]()) }

func newTxPoolOn(hashes *dense.Table[types.TxID]) *txPool {
	return &txPool{hashes: hashes, pages: make(map[uint64]*page)}
}

// page returns the page seq falls in, or nil; create adds a missing one.
func (p *txPool) page(seq uint64, create bool) *page {
	key := seq >> pageBits
	if p.last != nil && p.last.key == key {
		return p.last
	}
	pg := p.pages[key]
	if pg == nil {
		if !create {
			return nil
		}
		if n := len(p.spare); n > 0 {
			pg, p.spare = p.spare[n-1], p.spare[:n-1]
		} else {
			pg = new(page)
		}
		pg.key, p.pages[key] = key, pg
	}
	p.last = pg
	return pg
}

// release recycles pg once nothing in it is in use.
func (p *txPool) release(pg *page) {
	if pg.held|pg.noted == 0 && pg.cons == nil {
		delete(p.pages, pg.key)
		p.last = nil
		p.spare = append(p.spare, pg)
	}
}

// rec returns id's record for the caller to mark.
func (p *txPool) rec(id types.TxID) *txRec { return p.recs.At(p.hashes.Intern(id)) }

// known returns id's record to read; nil is as good as the zero record.
func (p *txPool) known(id types.TxID) *txRec {
	if ord, ok := p.hashes.Lookup(id); ok {
		return p.recs.Get(ord)
	}
	return nil
}

// slotAt returns the slot holding a payload at seq, or nil. The pointer is
// good until the pool next changes.
func (p *txPool) slotAt(seq uint64) *slot {
	if pg := p.page(seq, false); pg != nil && pg.held&(1<<(seq&pageMask)) != 0 {
		return &pg.slots[seq&pageMask]
	}
	return nil
}

func (p *txPool) put(seq uint64, tx *types.Transaction, r *txRec) {
	pg := p.page(seq, true)
	pg.slots[seq&pageMask] = slot{tx: tx, rec: r, arrival: -1}
	pg.held |= 1 << (seq & pageMask)
	r.pooled, r.seq = true, seq
}

// unpool empties the slot r's payload is in.
func (p *txPool) unpool(r *txRec) {
	pg := p.page(r.seq, false)
	pg.slots[r.seq&pageMask] = slot{}
	pg.held &^= 1 << (r.seq & pageMask)
	r.pooled = false
	p.release(pg)
}

// addResult says what happened to an insertion attempt.
type addResult int

const (
	poolAdded addResult = iota
	// poolDupSeq: the sequence number is occupied by a different
	// transaction — a conflict in the sense of Def 4.1 precursor.
	poolDupSeq
	// poolDupHash: replay-check rejection.
	poolDupHash
)

// add attempts to insert tx at seq.
func (p *txPool) add(seq uint64, tx *types.Transaction) addResult {
	return p.addOrd(seq, tx, p.hashes.Intern(tx.ID()))
}

// addOrd is add for a caller that holds the ordinal of tx's hash.
func (p *txPool) addOrd(seq uint64, tx *types.Transaction, ord uint32) addResult {
	if s := p.slotAt(seq); s != nil {
		if r := p.recs.Get(ord); r == s.rec || (r != nil && r.committed) {
			return poolDupHash
		}
		return poolDupSeq
	}
	r := p.recs.At(ord)
	if r.committed || r.pooled {
		return poolDupHash
	}
	p.put(seq, tx, r)
	return poolAdded
}

// at returns the transaction at seq, if any.
func (p *txPool) at(seq uint64) (*types.Transaction, bool) {
	if s := p.slotAt(seq); s != nil {
		return s.tx, true
	}
	return nil, false
}

// payload returns r's transaction while it is pooled, else nil.
func (p *txPool) payload(r *txRec) *types.Transaction {
	if r == nil || !r.pooled {
		return nil
	}
	return p.slotAt(r.seq).tx
}

// byID returns the transaction with the given hash, if pooled.
func (p *txPool) byID(id types.TxID) (*types.Transaction, bool) {
	tx := p.payload(p.known(id))
	return tx, tx != nil
}

// seqOf returns the pooled sequence number of a hash.
func (p *txPool) seqOf(id types.TxID) (uint64, bool) {
	if r := p.known(id); r != nil && r.pooled {
		return r.seq, true
	}
	return 0, false
}

// markCommitted removes a transaction and bars its hash from re-entry.
func (p *txPool) markCommitted(id types.TxID) { p.commit(p.rec(id)) }

func (p *txPool) commit(r *txRec) {
	r.committed = true
	if r.pooled {
		p.unpool(r)
	}
}

// replace forcibly installs tx at seq, evicting any different occupant —
// the authoritative path for batches arriving from the leader's own
// co-located sequencer, which a racing broadcaster must never displace.
func (p *txPool) replace(seq uint64, tx *types.Transaction) {
	p.replaceOrd(seq, tx, p.hashes.Intern(tx.ID()))
}

// replaceOrd is replace for a caller that holds the ordinal of tx's hash.
func (p *txPool) replaceOrd(seq uint64, tx *types.Transaction, ord uint32) {
	r, s := p.recs.At(ord), p.slotAt(seq)
	if r.committed || (s != nil && s.rec == r) {
		return
	}
	if s != nil {
		p.unpool(s.rec)
	}
	if r.pooled {
		p.unpool(r)
	}
	p.put(seq, tx, r)
}

// agree marks h as ordered by consensus at seq and returns its record (found
// through the slot when the payload is there) and seq's squatter, if any.
func (p *txPool) agree(seq uint64, h types.TxID) (r *txRec, squatter *slot) {
	if s := p.slotAt(seq); s != nil && s.tx.ID() == h {
		r = s.rec
	} else {
		r, squatter = p.rec(h), s
	}
	r.agreed = true
	return r, squatter
}

// drop removes the entry at seq without barring the hash.
func (p *txPool) drop(seq uint64) {
	if s := p.slotAt(seq); s != nil {
		p.unpool(s.rec)
	}
}

// lowestFrom returns the lowest pooled sequence number that is >= from.
func (p *txPool) lowestFrom(from uint64) (lo uint64, found bool) {
	for key, pg := range p.pages {
		held := pg.held
		if key == from>>pageBits {
			held &= ^uint64(0) << (from & pageMask)
		}
		s := key<<pageBits | uint64(bits.TrailingZeros64(held))
		if held != 0 && key >= from>>pageBits && (!found || s < lo) {
			lo, found = s, true
		}
	}
	return lo, found
}

// noted returns seq's node slot if it is in use, else nil. The pointer is
// good until the pool next changes.
func (p *txPool) noted(seq uint64) *nodeSlot {
	if pg := p.page(seq, false); pg != nil && pg.noted&(1<<(seq&pageMask)) != 0 {
		return &pg.node[seq&pageMask]
	}
	return nil
}

// persisted reports whether seq's result reached its PERSIST quorum.
func (p *txPool) persisted(seq uint64) bool {
	ns := p.noted(seq)
	return ns != nil && ns.persist.result != nil
}

// note returns seq's node slot for the caller to store a result or vote in.
func (p *txPool) note(seq uint64) *nodeSlot {
	pg := p.page(seq, true)
	if pg.node == nil {
		pg.node = new([pageSize]nodeSlot)
	}
	pg.noted |= 1 << (seq & pageMask)
	return &pg.node[seq&pageMask]
}

// consAt returns seq's consensus node slot; create adds a missing one, else
// it is nil. The pointer is good for the pool's life.
func (p *txPool) consAt(seq uint64, create bool) *consSlot {
	pg := p.page(seq, create)
	if pg == nil || (pg.cons == nil && !create) {
		return nil
	}
	if pg.cons == nil {
		pg.cons = new([pageSize]consSlot)
	}
	return &pg.cons[seq&pageMask]
}

// dropSpecs discards every speculative result and returns how many there were.
func (p *txPool) dropSpecs() (dropped int) {
	for _, pg := range p.pages {
		for m := pg.noted; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if ns := &pg.node[i]; ns.spec != nil {
				ns.spec, ns.orgRes = nil, nil
				dropped++
				if ns.persist.first == nil {
					pg.noted &^= 1 << i
				}
			}
		}
		p.release(pg)
	}
	return dropped
}

// clearNote forgets, once the block ordering seq commits, what the node noted
// there and the arrival time of whatever payload sits there.
func (p *txPool) clearNote(seq uint64) {
	if s := p.slotAt(seq); s != nil {
		s.arrival = -1
	}
	if ns := p.noted(seq); ns != nil {
		*ns = nodeSlot{}
		pg := p.page(seq, false)
		pg.noted &^= 1 << (seq & pageMask)
		p.release(pg)
	}
}
