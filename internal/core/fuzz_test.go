package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
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

// FuzzPersistVote drives one PERSIST tally with votes from node indices in
// [0, 200), across the 128-bit mask into the spill map, for four kinds of
// echo: the first object, a field-equal copy with its content key warmed or
// not, and entries that differ. After every vote the count persistStatus.vote
// returns, through its object-identity fast path or not, must equal that of a
// plain map from content key to voters. Each draw is three bytes: the node
// index (two, big-endian, mod 200) and the echo kind.
func FuzzPersistVote(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 130, 0, 0, 199, 3})
	f.Add([]byte{0, 5, 3, 0, 5, 0, 0, 6, 0, 0, 150, 1, 0, 150, 0, 0, 140, 7})
	f.Add([]byte{0, 127, 2, 0, 128, 1, 0, 128, 0, 0, 64, 3, 0, 64, 7})
	f.Fuzz(func(t *testing.T, draws []byte) {
		entry := func(result byte, warm bool) *PersistEntry {
			e := &PersistEntry{Seq: 1, TxID: types.TxID{1}, VecDigest: crypto.Digest{2}, Consistent: true,
				ResultDigest: crypto.Digest{result}, Writes: []ledger.Write{{Key: "k", Val: []byte{result}}}}
			if warm {
				e.warmContentKey()
			}
			return e
		}
		first := entry(0, false)
		var ps persistStatus
		ref := make(map[crypto.Digest]map[int]bool)
		for ; len(draws) >= 3; draws = draws[3:] {
			node := int(binary.BigEndian.Uint16(draws)) % 200
			var e *PersistEntry
			switch kind := draws[2] % 4; kind {
			case 0:
				e = first
			case 1, 2:
				e = entry(0, kind == 2)
			default:
				e = entry(1+draws[2]/4%2, draws[2]/8%2 == 1)
			}
			key := entry(e.ResultDigest[0], false).contentKey()
			if ref[key] == nil {
				ref[key] = make(map[int]bool)
			}
			ref[key][node] = true
			if got, want := ps.vote(e, node), len(ref[key]); got != want {
				t.Fatalf("node %d voting for result %d: tally %d, reference %d", node, e.ResultDigest[0], got, want)
			}
		}
	})
}
