package types

import "github.com/bidl-framework/bidl/internal/crypto"

// EncodeOrdering serializes a parallel (sequence number, transaction hash)
// list — the exact bytes a BFT protocol agrees on under the
// consensus-on-hash optimization. seqs and hashes must have equal length.
func EncodeOrdering(seqs []uint64, hashes []TxID) []byte {
	var e enc
	e.u32(uint32(len(seqs)))
	for i := range seqs {
		e.u64(seqs[i])
		e.buf = append(e.buf, hashes[i][:]...)
	}
	return e.buf
}

// DecodeOrdering parses EncodeOrdering output.
func DecodeOrdering(buf []byte) (seqs []uint64, hashes []TxID, err error) {
	d := &dec{buf: buf}
	n := d.count()
	// The count comes first, so both slices are sized once; it is capped by
	// the entries the buffer can hold, so a hostile count cannot over-allocate.
	if c := min(n, len(buf)/40); c > 0 {
		seqs, hashes = make([]uint64, 0, c), make([]TxID, 0, c)
	}
	for i := 0; i < n && d.err == nil; i++ {
		seqs = append(seqs, d.u64())
		if d.off+32 > len(d.buf) {
			d.fail("hash")
			break
		}
		var h TxID
		copy(h[:], d.buf[d.off:])
		d.off += 32
		hashes = append(hashes, h)
	}
	if e := d.done(); e != nil {
		return nil, nil, e
	}
	return seqs, hashes, nil
}

// OrderingDigest hashes an encoded ordering — the consensus value digest.
func OrderingDigest(ordering []byte) crypto.Digest { return crypto.Hash(ordering) }
