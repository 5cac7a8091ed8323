package ledger

import (
	"bytes"

	"github.com/bidl-framework/bidl/internal/crypto"
)

// Read records a key read and the version observed at execution time.
type Read struct {
	Key string
	Ver Version
	// Existed records whether the key existed at read time; a later
	// creation of a previously-absent key is also a conflict.
	Existed bool
}

// Write records a key (over)write or deletion.
type Write struct {
	Key    string
	Val    []byte
	Delete bool
}

// RWSet is the execution result of one transaction: the HLF-style read-write
// set. In BIDL, the write portion is the "execution result (i.e., all
// modified keys and values)" persisted by the multi-write protocol (§4.4).
type RWSet struct {
	Reads  []Read
	Writes []Write
	// Aborted marks an execution that failed application logic (e.g.
	// insufficient balance); it still commits as a no-op result.
	Aborted bool
}

// Digest hashes the write set (the externally visible result). Two
// executions of a deterministic transaction produce equal digests; a
// non-deterministic transaction may not (§4.4).
func (rw *RWSet) Digest() crypto.Digest {
	var buf [256]byte
	b := buf[:0]
	if rw.Aborted {
		b = crypto.AppendPart(b, "aborted")
	} else {
		b = crypto.AppendPart(b, "ok")
	}
	for _, w := range rw.Writes {
		b = crypto.AppendPart(b, w.Key)
		if w.Delete {
			b = crypto.AppendPart(crypto.AppendPart(b, "\x01"), "")
		} else {
			b = crypto.AppendPart(crypto.AppendPart(b, "\x00"), w.Val)
		}
	}
	return crypto.Hash(b)
}

// Equal reports whether two results have identical write sets.
func (rw *RWSet) Equal(o *RWSet) bool {
	if rw.Aborted != o.Aborted || len(rw.Writes) != len(o.Writes) {
		return false
	}
	for i := range rw.Writes {
		a, b := rw.Writes[i], o.Writes[i]
		if a.Key != b.Key || a.Delete != b.Delete || !bytes.Equal(a.Val, b.Val) {
			return false
		}
	}
	return true
}

// ValidateMVCC performs HLF's multi-version concurrency check: every key the
// transaction read must still be at the version observed during endorsement.
// Contending transactions endorsed in parallel fail this check and abort —
// the behaviour BIDL eliminates by executing in sequence-number order (§4.3).
func ValidateMVCC(s *State, rw *RWSet) bool { return s.ValidateResolved(rw.Reads, KeyIDs{}) }
