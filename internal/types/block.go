package types

import (
	"github.com/bidl-framework/bidl/internal/crypto"
)

// NodeSig is one consensus node's signature within a certificate.
type NodeSig struct {
	Node int
	Sig  crypto.Signature
}

// Certificate proves that a quorum of consensus nodes agreed on a block
// digest in a view. Blocks with 2f+1 valid signatures are committable
// (Algo 2 line 9).
type Certificate struct {
	View   uint64
	Number uint64
	Digest crypto.Digest
	Sigs   []NodeSig

	// verified memoises Verify per quorum size: a disseminated block's
	// certificate is one object read by every node of the deployment, all
	// under the same membership, and its fields are final once built.
	verified crypto.Verdict
}

// SigningBytes returns the bytes each consensus node signs: the tuple
// (view, number, digest).
func CertSigningBytes(view, number uint64, digest crypto.Digest) []byte {
	var e enc
	e.u64(view)
	e.u64(number)
	e.buf = append(e.buf, digest[:]...)
	return e.buf
}

// Size returns the certificate's wire size.
func (c *Certificate) Size() int {
	n := 8 + 8 + 32 + 4
	for _, s := range c.Sigs {
		n += 4 + 4 + len(s.Sig)
	}
	return n
}

// Verify checks that the certificate carries at least quorum valid
// signatures from distinct nodes over the expected tuple.
func (c *Certificate) Verify(scheme crypto.Scheme, nodeIdentity func(int) crypto.Identity, quorum int) bool {
	return c.verified.Check(uint32(quorum), func() bool { return c.verify(scheme, nodeIdentity, quorum) })
}

func (c *Certificate) verify(scheme crypto.Scheme, nodeIdentity func(int) crypto.Identity, quorum int) bool {
	msg := CertSigningBytes(c.View, c.Number, c.Digest)
	seen := make(map[int]bool, len(c.Sigs))
	valid := 0
	for _, s := range c.Sigs {
		if seen[s.Node] {
			continue
		}
		seen[s.Node] = true
		if scheme.Verify(nodeIdentity(s.Node), msg, s.Sig) {
			valid++
		}
	}
	return valid >= quorum
}

// Block is an ordered batch of transactions. Under the consensus-on-hash
// optimization (§6), consensus nodes agree on Seqs+Hashes; full transactions
// travel via the sequencer multicast and are re-attached at assembly.
type Block struct {
	Number uint64
	Prev   crypto.Digest
	// Seqs are the sequence numbers assigned by the sequencer, parallel
	// with Hashes.
	Seqs   []uint64
	Hashes []TxID
	// Txns carries full payloads when present (nil in hash-only
	// proposals).
	Txns []*Transaction
	Cert *Certificate
}

// HeaderDigest hashes the ordering-relevant content: number, previous
// digest, sequence numbers and transaction hashes. This is the value the BFT
// protocol agrees on and certificates sign.
func (b *Block) HeaderDigest() crypto.Digest {
	e := enc{buf: make([]byte, 0, 8+32+4+len(b.Seqs)*(8+32))} // exact: one allocation
	e.u64(b.Number)
	e.buf = append(e.buf, b.Prev[:]...)
	e.u32(uint32(len(b.Seqs)))
	for i := range b.Seqs {
		e.u64(b.Seqs[i])
		e.buf = append(e.buf, b.Hashes[i][:]...)
	}
	return crypto.Hash(e.buf)
}

// TipBlock memoises, on a block message every replica receives by pointer, the
// ledger block it commits on a chain tip and that block's header digest:
// functions of the message and the tip alone (DESIGN.md §7.1).
type TipBlock struct {
	blk *Block
	dig crypto.Digest
}

// On returns the block a node with chain tip prev commits, and its header
// digest; build makes the block from the message, On sets its Prev. The first
// committer builds and hashes it, every node on the same tip appends that
// object, and a node on another tip builds its own.
func (m *TipBlock) On(prev crypto.Digest, build func() *Block) (*Block, crypto.Digest) {
	if m.blk != nil && m.blk.Prev == prev {
		return m.blk, m.dig
	}
	b := build()
	b.Prev = prev
	digest := b.HeaderDigest()
	if m.blk == nil {
		m.blk, m.dig = b, digest
	}
	return b, digest
}

// HashOnlySize is the wire size of the block without payloads — what the
// consensus-on-hash optimization sends through the BFT protocol.
func (b *Block) HashOnlySize() int {
	n := 8 + 32 + 4 + len(b.Hashes)*(8+32)
	if b.Cert != nil {
		n += b.Cert.Size()
	}
	return n
}

// Size implements simnet.Message: full size including any payloads.
func (b *Block) Size() int {
	n := b.HashOnlySize()
	for _, t := range b.Txns {
		if t != nil {
			n += t.Size()
		}
	}
	return n
}
