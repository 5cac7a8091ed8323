package types

import (
	"runtime"
	"testing"
	"testing/quick"

	"github.com/bidl-framework/bidl/internal/crypto"
)

func TestOrderingRoundTrip(t *testing.T) {
	seqs := []uint64{5, 9, 100}
	hashes := []TxID{crypto.Hash([]byte("a")), crypto.Hash([]byte("b")), crypto.Hash([]byte("c"))}
	buf := EncodeOrdering(seqs, hashes)
	s2, h2, err := DecodeOrdering(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqs {
		if s2[i] != seqs[i] || h2[i] != hashes[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestOrderingEmpty(t *testing.T) {
	buf := EncodeOrdering(nil, nil)
	s, h, err := DecodeOrdering(buf)
	if err != nil || len(s) != 0 || len(h) != 0 {
		t.Fatalf("empty ordering: %v %v %v", s, h, err)
	}
}

func TestOrderingCorrupt(t *testing.T) {
	buf := EncodeOrdering([]uint64{1}, []TxID{crypto.Hash([]byte("x"))})
	for i := 0; i < len(buf); i++ {
		if _, _, err := DecodeOrdering(buf[:i]); err == nil {
			t.Fatalf("prefix %d decoded", i)
		}
	}
	if _, _, err := DecodeOrdering(append(buf, 1)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestPropertyOrderingRoundTrip(t *testing.T) {
	f := func(seqs []uint64) bool {
		hashes := make([]TxID, len(seqs))
		for i, s := range seqs {
			hashes[i] = crypto.Hash([]byte{byte(s), byte(s >> 8), byte(i)})
		}
		s2, h2, err := DecodeOrdering(EncodeOrdering(seqs, hashes))
		if err != nil || len(s2) != len(seqs) {
			return false
		}
		for i := range seqs {
			if s2[i] != seqs[i] || h2[i] != hashes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderingDigestBindsContent(t *testing.T) {
	a := EncodeOrdering([]uint64{1}, []TxID{crypto.Hash([]byte("a"))})
	b := EncodeOrdering([]uint64{2}, []TxID{crypto.Hash([]byte("a"))})
	if OrderingDigest(a) == OrderingDigest(b) {
		t.Fatal("digest ignores sequence numbers")
	}
}

// TestDecodeOrderingSizesOnce: the count is the first field, so both result
// slices are allocated once at their final size, and a count the body cannot
// back (the largest the codec admits, over one entry) allocates for what the
// buffer holds, not for the count.
func TestDecodeOrderingSizesOnce(t *testing.T) {
	seqs := make([]uint64, 500)
	hashes := make([]TxID, 500)
	buf := EncodeOrdering(seqs, hashes)
	if allocs := testing.AllocsPerRun(20, func() { DecodeOrdering(buf) }); allocs > 3 {
		t.Fatalf("decoding 500 entries = %v allocs, want the two slices (and the decoder)", allocs)
	}
	s, h, err := DecodeOrdering(buf)
	if err != nil || cap(s) != 500 || cap(h) != 500 {
		t.Fatalf("decoded capacities %d, %d (err %v), want exactly 500", cap(s), cap(h), err)
	}

	hostile := EncodeOrdering(seqs[:1], hashes[:1])
	hostile[1] = 0x10 // count 1<<20, body of one entry
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := DecodeOrdering(hostile); err == nil {
		t.Fatal("count beyond the body decoded")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<12 {
		t.Fatalf("hostile count allocated %d bytes", grown)
	}
}
