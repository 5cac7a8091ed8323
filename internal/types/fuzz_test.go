package types

import (
	"bytes"
	"testing"
)

// The codecs' contract on bytes from outside: corrupt input is an error,
// never a panic, and whatever decodes re-encodes to the same bytes (there is
// one encoding per value, so a digest over it means one thing).

func FuzzTransaction(f *testing.F) {
	tx := &Transaction{
		Client: "client-3", Nonce: 7, View: 2, Contract: "smallbank", Fn: "send_payment",
		Args: [][]byte{[]byte("acct-1"), []byte("acct-2"), []byte("40")},
		Orgs: []string{OrgName(0), OrgName(1)}, Padding: 1024, Sig: []byte{1, 2, 3, 4},
	}
	f.Add(tx.Marshal())
	f.Add((&Transaction{}).Marshal())
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		tx, err := UnmarshalTransaction(b)
		if err != nil {
			return
		}
		if got := tx.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("Marshal(Unmarshal(b)) = %x, b = %x", got, b)
		}
		if tx.Size() != len(b)+int(tx.Padding) {
			t.Fatalf("Size() = %d, want %d encoded + %d padding", tx.Size(), len(b), tx.Padding)
		}
	})
}

func FuzzOrdering(f *testing.F) {
	f.Add(EncodeOrdering(nil, nil))
	f.Add(EncodeOrdering([]uint64{1, 2, 1 << 40}, []TxID{{1}, {2}, {0xff}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A hostile count over a short body: the decoder sizes its result by what
	// the buffer can hold, not by the count.
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		seqs, hashes, err := DecodeOrdering(b)
		if err != nil {
			return
		}
		if len(seqs) != len(hashes) {
			t.Fatalf("decoded %d sequence numbers and %d hashes", len(seqs), len(hashes))
		}
		if got := EncodeOrdering(seqs, hashes); !bytes.Equal(got, b) {
			t.Fatalf("Encode(Decode(b)) = %x, b = %x", got, b)
		}
	})
}
