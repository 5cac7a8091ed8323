package core

import "github.com/bidl-framework/bidl/internal/types"

// txPool holds sequenced transactions pending agreement, indexed by sequence
// number and by hash. The first transaction received for a sequence number
// wins (§4.1 step 1); duplicate hashes are rejected (replay check, step 2).
type txPool struct {
	bySeq  map[uint64]*types.Transaction
	byHash map[types.TxID]uint64
	// committed tracks hashes that reached the ledger; they are rejected
	// forever by the replay check.
	committed map[types.TxID]bool
}

func newTxPool() *txPool {
	return &txPool{
		bySeq:     make(map[uint64]*types.Transaction),
		byHash:    make(map[types.TxID]uint64),
		committed: make(map[types.TxID]bool),
	}
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
	id := tx.ID()
	if p.committed[id] {
		return poolDupHash
	}
	if existing, ok := p.bySeq[seq]; ok {
		if existing.ID() == id {
			return poolDupHash
		}
		return poolDupSeq
	}
	if _, ok := p.byHash[id]; ok {
		return poolDupHash
	}
	p.bySeq[seq] = tx
	p.byHash[id] = seq
	return poolAdded
}

// at returns the transaction at seq, if any.
func (p *txPool) at(seq uint64) (*types.Transaction, bool) {
	tx, ok := p.bySeq[seq]
	return tx, ok
}

// byID returns the transaction with the given hash, if pooled.
func (p *txPool) byID(id types.TxID) (*types.Transaction, bool) {
	seq, ok := p.byHash[id]
	if !ok {
		return nil, false
	}
	return p.bySeq[seq], true
}

// seqOf returns the pooled sequence number of a hash.
func (p *txPool) seqOf(id types.TxID) (uint64, bool) {
	seq, ok := p.byHash[id]
	return seq, ok
}

// markCommitted removes a transaction and bars its hash from re-entry.
func (p *txPool) markCommitted(id types.TxID) {
	p.committed[id] = true
	if seq, ok := p.byHash[id]; ok {
		delete(p.byHash, id)
		delete(p.bySeq, seq)
	}
}

// isCommitted reports whether the hash already committed.
func (p *txPool) isCommitted(id types.TxID) bool { return p.committed[id] }

// replace forcibly installs tx at seq, evicting any different occupant —
// the authoritative path for batches arriving from the leader's own
// co-located sequencer, which a racing broadcaster must never displace.
func (p *txPool) replace(seq uint64, tx *types.Transaction) {
	id := tx.ID()
	if p.committed[id] {
		return
	}
	if existing, ok := p.bySeq[seq]; ok {
		if existing.ID() == id {
			return
		}
		delete(p.byHash, existing.ID())
	}
	if oldSeq, ok := p.byHash[id]; ok {
		delete(p.bySeq, oldSeq)
	}
	p.bySeq[seq] = tx
	p.byHash[id] = seq
}

// drop removes the entry at seq without barring the hash.
func (p *txPool) drop(seq uint64) {
	if tx, ok := p.bySeq[seq]; ok {
		delete(p.byHash, tx.ID())
		delete(p.bySeq, seq)
	}
}
