package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// The consensus node's two parsers of bytes another consensus node chose:
// corrupt input is an error or an empty result, never a panic, and what an
// honest node encodes decodes to what it meant.

func FuzzDecodeOrderingPrefix(f *testing.F) {
	one := types.EncodeOrdering([]uint64{7}, []types.TxID{{1}})
	f.Add(one, []byte(nil))
	f.Add(one, make([]byte, 1024)) // a consensus-on-payload proposal
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{1})
	f.Add([]byte{0, 0, 0, 2}, make([]byte, 40))
	f.Fuzz(func(t *testing.T, b, payload []byte) {
		if seqs, hashes, err := decodeOrderingPrefix(b); err == nil && len(seqs) != len(hashes) {
			t.Fatalf("decoded %d sequence numbers and %d hashes", len(seqs), len(hashes))
		}
		// b read as 40-byte (sequence number, hash) entries is an ordering;
		// followed by any payload it decodes to exactly those entries.
		var seqs []uint64
		var hashes []types.TxID
		for ; len(b) >= 40; b = b[40:] {
			seqs = append(seqs, binary.BigEndian.Uint64(b))
			hashes = append(hashes, types.TxID(b[8:40]))
		}
		gotSeqs, gotHashes, err := decodeOrderingPrefix(append(types.EncodeOrdering(seqs, hashes), payload...))
		if err != nil {
			t.Fatalf("ordering of %d entries + %d payload bytes: %v", len(seqs), len(payload), err)
		}
		if !slices.Equal(gotSeqs, seqs) || !slices.Equal(gotHashes, hashes) {
			t.Fatalf("decoded (%v, %x), encoded (%v, %x)", gotSeqs, gotHashes, seqs, hashes)
		}
	})
}

func FuzzDecodeMeta(f *testing.F) {
	f.Add([]byte("client-3\x00client-1\x00"))
	f.Add([]byte("\x00\x00a\x00\x00b"))
	f.Add([]byte("client-1\x00client-1\x00"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, meta []byte) {
		ids := decodeMeta(meta)
		for _, id := range ids {
			if len(id) == 0 || slices.Contains([]byte(id), 0) {
				t.Fatalf("decoded identity %q", id)
			}
		}
		// Whatever identities a node votes for, its view-change payload
		// decodes to them, sorted and each once.
		n := &ConsNode{c: &Cluster{}, maliceVotes: make(map[crypto.Identity]bool)}
		for _, id := range ids {
			n.maliceVotes[id] = true
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := decodeMeta(n.ViewChangeMeta()); !slices.Equal(got, want) {
			t.Fatalf("votes %q decode to %q", want, got)
		}
	})
}
