package ledger

import (
	"errors"
	"fmt"
	"slices"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// ErrChainBroken is returned when a block does not extend the chain.
var ErrChainBroken = errors.New("ledger: block does not extend chain")

// BlockStore is an append-only, hash-chained block ledger. Every node
// maintains one; experiments compare stores across correct nodes to validate
// the paper's safety guarantee.
type BlockStore struct {
	blocks []*types.Block
	// digests[i] is blocks[i]'s header digest as recorded by Append: the chain
	// tip and both comparisons read it instead of re-hashing.
	digests []crypto.Digest
	last    crypto.Digest
}

// NewBlockStore returns an empty chain. The genesis predecessor digest is
// the zero digest.
func NewBlockStore() *BlockStore { return &BlockStore{} }

// Height returns the number of appended blocks.
func (bs *BlockStore) Height() uint64 { return uint64(len(bs.blocks)) }

// LastDigest returns the header digest of the most recent block (zero digest
// for an empty chain). BIDL uses it as the random seed for leader rotation
// (§4.6).
func (bs *BlockStore) LastDigest() crypto.Digest { return bs.last }

// Get returns block n (0-based), or nil if out of range.
func (bs *BlockStore) Get(n uint64) *types.Block {
	if n >= uint64(len(bs.blocks)) {
		return nil
	}
	return bs.blocks[n]
}

// Append validates that b extends the chain (consecutive number, matching
// previous digest) and appends it.
func (bs *BlockStore) Append(b *types.Block) error {
	return bs.AppendHashed(b, b.HeaderDigest())
}

// AppendHashed is Append for a caller that already holds b.HeaderDigest():
// nodes extending the same tip with one shared block object hash it once.
func (bs *BlockStore) AppendHashed(b *types.Block, digest crypto.Digest) error {
	if b.Number != bs.Height() {
		return fmt.Errorf("%w: number %d, height %d", ErrChainBroken, b.Number, bs.Height())
	}
	if b.Prev != bs.last {
		return fmt.Errorf("%w: prev digest mismatch at block %d", ErrChainBroken, b.Number)
	}
	bs.blocks = append(bs.blocks, b)
	bs.digests, bs.last = append(bs.digests, digest), digest
	return nil
}

// Equal reports whether two chains hold identical headers at every height.
func (bs *BlockStore) Equal(o *BlockStore) bool {
	return slices.Equal(bs.digests, o.digests)
}

// CommonPrefixEqual reports whether the shorter chain is a prefix of the
// longer one — the safety property that holds even while nodes are at
// different heights.
func (bs *BlockStore) CommonPrefixEqual(o *BlockStore) bool {
	n := min(len(bs.digests), len(o.digests))
	return slices.Equal(bs.digests[:n], o.digests[:n])
}
