package consensus

import (
	"bytes"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// refCert is the certificate a plain map of votes gives: the first limit
// signatures in ascending member order, all of them for limit <= 0.
func refCert(view, seq uint64, d crypto.Digest, votes map[int]crypto.Signature, limit int) *types.Certificate {
	cert := &types.Certificate{View: view, Number: seq, Digest: d}
	for _, node := range SortedNodes(votes) {
		cert.Sigs = append(cert.Sigs, types.NodeSig{Node: node, Sig: votes[node]})
		if len(cert.Sigs) == limit {
			break
		}
	}
	return cert
}

// FuzzVotes drives one vote tally with a drawn sequence of adds over members
// [0, n), against a map by member: duplicates, re-votes with another
// signature and members in any order. After every add the tally's count and
// membership must equal the map's, and its certificate, at limits below, at
// and above the count, must equal the map's in ascending member order. The
// first byte picks n in [1, 200], across the 64-member words; each later pair
// of bytes is one add: the member (mod n) and the signature's one byte.
func FuzzVotes(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 2, 1, 3, 2, 4})                // n=4: out of order, one duplicate
	f.Add([]byte{96, 5, 1, 5, 2, 70, 3, 64, 4, 0, 5})       // n=97: a re-vote, three words
	f.Add([]byte{199, 199, 1, 128, 2, 63, 3, 0, 4, 127, 5}) // n=200: each word's edges
	f.Fuzz(func(t *testing.T, draws []byte) {
		if len(draws) == 0 {
			return
		}
		n := 1 + int(draws[0])%200
		d := crypto.Digest{draws[0]}
		votes := newTally(n)
		ref := make(map[int]crypto.Signature)
		for draws = draws[1:]; len(draws) >= 2; draws = draws[2:] {
			member, sig := int(draws[0])%n, crypto.Signature{draws[1]}
			votes.Add(member, sig)
			ref[member] = sig
			if votes.Len() != len(ref) {
				t.Fatalf("n=%d: %d votes after adding member %d, map holds %d", n, votes.Len(), member, len(ref))
			}
			for m := 0; m < n; m++ {
				if _, ok := ref[m]; votes.Has(m) != ok {
					t.Fatalf("n=%d: Has(%d) = %v, map says %v", n, m, votes.Has(m), ok)
				}
			}
			for _, limit := range []int{1, (len(ref) + 1) / 2, len(ref), len(ref) + 1, n} {
				got, want := votes.Cert(7, 9, d, limit), refCert(7, 9, d, ref, limit)
				if got.View != want.View || got.Number != want.Number || got.Digest != want.Digest || len(got.Sigs) != len(want.Sigs) {
					t.Fatalf("n=%d limit=%d: certificate (%d, %d, %d sigs), map gives (%d, %d, %d sigs)",
						n, limit, got.View, got.Number, len(got.Sigs), want.View, want.Number, len(want.Sigs))
				}
				for i, s := range got.Sigs {
					if s.Node != want.Sigs[i].Node || !bytes.Equal(s.Sig, want.Sigs[i].Sig) {
						t.Fatalf("n=%d limit=%d: signature %d is member %d's %x, map gives member %d's %x",
							n, limit, i, s.Node, s.Sig, want.Sigs[i].Node, want.Sigs[i].Sig)
					}
				}
			}
		}
	})
}

// TestViewSigningBytesCoverWholeNodeIndex: a committee of 256 or more signs
// its members' indices whole, so node i and node i+256 never sign the same
// view-change message.
func TestViewSigningBytesCoverWholeNodeIndex(t *testing.T) {
	a := ViewMsg{View: 3, Node: 1, Meta: []byte("m")}
	b := a
	b.Node = 257
	if string(a.signingBytes()) == string(b.signingBytes()) {
		t.Fatal("nodes 1 and 257 sign identical view-change bytes")
	}
}
