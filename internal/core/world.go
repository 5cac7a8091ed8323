package core

import "github.com/bidl-framework/bidl/internal/ledger"

// A transaction's outcome is the persisted result it commits, nil when it
// writes nothing: an abort, a non-deterministic result, an invalid
// transaction or a hash that committed in an earlier block.
func outcome(res *PersistEntry) *PersistEntry {
	if res == nil || !res.Consistent || res.Aborted {
		return nil
	}
	return res
}

// commitWorld moves st, a normal node's view of its cluster's one committed
// world state (DESIGN.md §7.1), past block num, whose transactions ended as
// outs: by following when the first node to commit the block recorded the
// same outcomes, else by applying outs, to the shared state when st is that
// first node's, or to a state of its own once st left (ledger.Shared).
func commitWorld(st *ledger.State, num uint64, outs []*PersistEntry) {
	rec, adopt := ledger.Follow(st, struct{}{}, len(outs), func(rec []*PersistEntry) bool { return matches(rec, outs) })
	if !adopt {
		copy(rec, outs)
		for i, out := range outs {
			if out != nil {
				st.ApplyResolved(out.Writes, out.kids, ledger.Version{Block: num, Tx: i})
			}
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
