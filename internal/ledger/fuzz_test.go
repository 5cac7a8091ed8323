package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
)

// referenceDigest is RWSet.Digest as first written, kept as the oracle:
// every part streamed into one SHA-256 state behind its 8-byte big-endian
// length.
func referenceDigest(rw *RWSet) crypto.Digest {
	h := sha256.New()
	part := func(p []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	if rw.Aborted {
		part([]byte("aborted"))
	} else {
		part([]byte("ok"))
	}
	for _, w := range rw.Writes {
		part([]byte(w.Key))
		if w.Delete {
			part([]byte{1})
			part(nil)
		} else {
			part([]byte{0})
			part(w.Val)
		}
	}
	var d crypto.Digest
	copy(d[:], h.Sum(nil))
	return d
}

// FuzzRWSetDigest checks Digest against the streaming reference on drawn
// write sets. Every three shape bytes are one write: its key's length, its
// value's length, and a byte whose bit 0 makes it a delete and whose upper
// bits add 256 bytes each to the value. Keys and values are cut from blob in
// turn, so one or two writes already frame to more than the 256 bytes
// Digest hashes from its stack buffer.
func FuzzRWSetDigest(f *testing.F) {
	f.Add(false, []byte{13, 3, 0, 13, 4, 0}, []byte("sb:chk:acct-1900sb:chk:acct-21100"))
	f.Add(true, []byte{1, 0, 1, 1, 0, 0}, []byte("kj"))
	f.Add(false, []byte{0, 0, 0}, []byte{})
	f.Add(false, []byte{20, 200, 0, 40, 255, 1, 8, 88, 4}, bytes.Repeat([]byte("0123456789"), 80))
	f.Add(false, []byte{200, 20, 0}, bytes.Repeat([]byte("k"), 220))
	f.Fuzz(func(t *testing.T, aborted bool, shape, blob []byte) {
		take := func(n int) []byte {
			n = min(n, len(blob))
			p := blob[:n]
			blob = blob[n:]
			return p
		}
		rw := RWSet{Aborted: aborted}
		for i := 0; i+2 < len(shape); i += 3 {
			w := Write{Key: string(take(int(shape[i])))}
			if shape[i+2]&1 != 0 {
				w.Delete = true
			} else {
				w.Val = take(int(shape[i+1]) + int(shape[i+2]>>1)*256)
			}
			rw.Writes = append(rw.Writes, w)
		}
		if got, want := rw.Digest(), referenceDigest(&rw); got != want {
			t.Fatalf("Digest of %d writes (aborted %v) = %s, reference %s", len(rw.Writes), rw.Aborted, got, want)
		}
	})
}
