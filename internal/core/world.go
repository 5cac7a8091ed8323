package core

import (
	"github.com/bidl-framework/bidl/internal/dense"
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
	// outs are the written blocks' outcomes; scratch is the committing
	// node's (one event loop: one commit at a time).
	outs    *ledger.Outcomes[struct{}, *PersistEntry]
	scratch []*PersistEntry
}

func newWorld(keys *dense.Table[string]) *world {
	st := ledger.NewShared(keys)
	return &world{st: st, outs: ledger.NewOutcomes[struct{}, *PersistEntry](st)}
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
		if rec, ok := w.outs.Lookup(st, struct{}{}); ok && matches(rec, outs) {
			st.Advance()
			return
		}
		st.Leave() // the node's outcomes differ: it builds its own state
	}
	if st.Leads() {
		if st.Begin(); st.Sharing() {
			copy(w.outs.Record(struct{}{}, len(outs)), outs)
		}
	}
	for i, out := range outs {
		if out != nil {
			st.ApplyResolved(out.Writes, out.kids, ledger.Version{Block: num, Tx: i})
		}
	}
	st.Advance()
}

// matches reports whether outs are the outcomes rec recorded: transaction by
// transaction, nothing, or the same persisted result or one of equal content.
func matches(rec, outs []*PersistEntry) bool {
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
