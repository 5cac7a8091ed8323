package core

import (
	"github.com/bidl-framework/bidl/internal/ledger"
)

// world is a cluster's one committed world state (DESIGN.md §7.1): every
// normal node's state is a view of it at the node's commit height. The first
// node to commit a block writes the block's writes into it and records each
// transaction's outcome; a later node whose outcomes match only moves its
// view up. A node whose outcomes differ leaves for good and goes on from a
// state of its own at its height, as does one written to directly or one
// that trails the head by too many blocks (ledger.Shared).
type world struct {
	st *ledger.Shared // nil: every node keeps a state of its own
	// outs[i] is block from+i's outcomes, kept from the slowest sharing
	// node's height on; spare holds dropped ones for reuse, scratch the
	// committing node's (one event loop: one commit at a time).
	from    uint64
	outs    ring[[]*PersistEntry]
	spare   [][]*PersistEntry
	scratch []*PersistEntry
}

// A transaction's outcome is the persisted result it commits, nil when it
// writes nothing: an abort, a non-deterministic result, an invalid
// transaction or a hash that committed in an earlier block.
func outcome(res *PersistEntry) *PersistEntry {
	if res == nil || !res.Consistent || res.Aborted {
		return nil
	}
	return res
}

// commit moves st, a node's state, past block num, whose transactions ended
// as outs: by writing the block when st is the first view to commit it, by
// following when another view wrote the same outcomes, else by applying outs
// to a state of its own.
func (w *world) commit(st *ledger.State, num uint64, outs []*PersistEntry) {
	if st.Sharing() && !st.Leads() {
		if w.matches(num, outs) {
			st.Advance()
			return
		}
		st.Leave() // the node's outcomes differ: it builds its own state
		w.trim()
	}
	if st.Leads() {
		if st.Begin(); st.Sharing() {
			w.record(outs)
		}
	}
	for i, out := range outs {
		if out != nil {
			st.ApplyResolved(out.Writes, out.kids, ledger.Version{Block: num, Tx: i})
		}
	}
	st.Advance()
}

// record keeps outs as the next block's outcomes.
func (w *world) record(outs []*PersistEntry) {
	w.trim()
	var rec []*PersistEntry
	if k := len(w.spare); k > 0 {
		rec, w.spare = w.spare[k-1], w.spare[:k-1]
	}
	w.outs.push(append(rec, outs...))
}

// trim drops the outcomes of blocks below the slowest sharing node.
func (w *world) trim() {
	for ; w.outs.len() > 0 && w.from < w.st.Low(); w.from++ {
		if rec := *w.outs.at(0); len(w.spare) < 4 {
			clear(rec)
			w.spare = append(w.spare, rec[:0])
		}
		w.outs.drop(1)
	}
}

// matches reports whether outs are the outcomes block num was written with:
// transaction by transaction, nothing, or the same persisted result or one of
// equal content.
func (w *world) matches(num uint64, outs []*PersistEntry) bool {
	rec := *w.outs.at(int(num - w.from))
	if len(rec) != len(outs) {
		return false
	}
	for i, out := range outs {
		if r := rec[i]; r != out && (r == nil || out == nil || r.contentKey() != out.contentKey()) {
			return false
		}
	}
	return true
}
