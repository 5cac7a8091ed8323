package fabric

import (
	"slices"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
)

// EndorseReq asks a peer to simulate a transaction.
type EndorseReq struct {
	Tx *types.Transaction
}

// Size implements simnet.Message.
func (m *EndorseReq) Size() int { return 16 + m.Tx.Size() }

// Endorsement is one organization's signed simulation result.
type Endorsement struct {
	Org    string
	Digest crypto.Digest
	Sig    crypto.Signature
}

func endorsementBytes(id types.TxID, org string, digest crypto.Digest) []byte {
	buf := make([]byte, 0, 80)
	buf = append(buf, id[:]...)
	buf = append(buf, org...)
	return append(buf, digest[:]...)
}

// EndorseResp returns the endorsement and (from the first org) the
// read-write set the client assembles into the envelope.
type EndorseResp struct {
	TxID        types.TxID
	Endorsement Endorsement
	Reads       []ledger.Read
	Writes      []ledger.Write
	Aborted     bool
	// Err marks an endorsement failure (invalid transaction).
	Err bool
}

// Size implements simnet.Message.
func (m *EndorseResp) Size() int { return 16 + 32 + 16 + 32 + 64 + rwSize(m.Reads, m.Writes) }

// rwSize is the wire size of a read-write set.
func rwSize(reads []ledger.Read, writes []ledger.Write) int {
	n := 0
	for _, r := range reads {
		n += len(r.Key) + 17
	}
	for _, w := range writes {
		n += len(w.Key) + len(w.Val) + 2
	}
	return n
}

// Envelope is the client-assembled transaction proposal submitted to the
// ordering service: the transaction, its read-write set, and one
// endorsement per related organization. One object reaches every peer
// (DESIGN.md §7.1).
type Envelope struct {
	Tx           *types.Transaction
	Reads        []ledger.Read
	Writes       []ledger.Write
	Aborted      bool
	Endorsements []Endorsement

	size int            // lazy Size cache; envelopes are immutable once submitted
	vscc crypto.Verdict // endorsed's outcome, filled by the first peer to validate
	// Reads' and Writes' keys as ids in the deployment's key table, resolved
	// by the proposing orderer before any peer holds the envelope; one built
	// any other way carries none and every peer goes by name.
	rkeys, wkeys ledger.KeyIDs
}

// Size implements simnet.Message. Cached on the client's submission.
func (m *Envelope) Size() int {
	if m.size == 0 {
		m.size = m.Tx.Size() + len(m.Endorsements)*(16+32+64) + rwSize(m.Reads, m.Writes)
	}
	return m.size
}

// endorsed reports whether the envelope carries a valid endorsement of its
// read-write set from every related organization, each exactly once (VSCC).
// Signature-verification cost is part of validatePerTxn.
func (m *Envelope) endorsed(scheme crypto.Scheme) bool {
	return m.vscc.Check(0, func() bool {
		if len(m.Endorsements) != len(m.Tx.Orgs) {
			return false
		}
		dig := (&ledger.RWSet{Writes: m.Writes, Aborted: m.Aborted}).Digest()
		for i, e := range m.Endorsements {
			first := slices.IndexFunc(m.Endorsements, func(o Endorsement) bool { return o.Org == e.Org })
			if first != i || !m.Tx.RelatedTo(e.Org) || e.Digest != dig {
				return false
			}
			if !scheme.Verify(crypto.Identity(e.Org), endorsementBytes(m.Tx.ID(), e.Org, e.Digest), e.Sig) {
				return false
			}
		}
		return true
	})
}

// SubmitEnvelopes carries client envelopes to the ordering service.
type SubmitEnvelopes struct {
	Envs []*Envelope
}

// Size implements simnet.Message.
func (m *SubmitEnvelopes) Size() int { return 16 + envsSize(m.Envs) }

func envsSize(envs []*Envelope) int {
	n := 0
	for _, e := range envs {
		n += e.Size()
	}
	return n
}

// PayloadShare is the HLF ordering leader's dissemination of full envelope
// payloads to the other consensus nodes (so they can verify proposals —
// the property FastFabric gives up, Table 4).
type PayloadShare struct {
	Envs []*Envelope
}

// Size implements simnet.Message.
func (m *PayloadShare) Size() int { return 16 + envsSize(m.Envs) }

// FabricBlock is an ordered block delivered to peers for validation.
type FabricBlock struct {
	Number uint64
	Envs   []*Envelope
	Cert   *types.Certificate

	// ords are Envs' transaction hashes' ordinals, resolved by the
	// disseminating orderer (resolve); a block built or re-sent by anyone else
	// carries none and each peer interns the hashes itself.
	ords dense.Ordinals[types.TxID]
	tip  types.TipBlock // the ledger block this commits (block)
}

// Size implements simnet.Message.
func (m *FabricBlock) Size() int {
	n := 24 + envsSize(m.Envs)
	if m.Cert != nil {
		n += m.Cert.Size()
	}
	return n
}

// resolve fills the ordinal memo before the block is shared.
func (m *FabricBlock) resolve(hashes *dense.Table[types.TxID]) {
	m.ords.Resolve(hashes, make([]uint32, len(m.Envs)), func(i int) types.TxID { return m.Envs[i].Tx.ID() })
}

// block returns the ledger block a peer with chain tip prev appends for this
// message, and its header digest.
func (m *FabricBlock) block(prev crypto.Digest) (*types.Block, crypto.Digest) {
	return m.tip.On(prev, func() *types.Block {
		b := &types.Block{Number: m.Number, Hashes: make([]types.TxID, len(m.Envs)), Seqs: make([]uint64, len(m.Envs))}
		for i, env := range m.Envs {
			b.Hashes[i] = env.Tx.ID()
		}
		return b
	})
}

// FabricBlockFetch asks an orderer to re-send committed blocks in
// [From, To) — the peer catch-up path after a crash or healed partition.
type FabricBlockFetch struct {
	From uint64
	To   uint64
}

// Size implements simnet.Message.
func (m *FabricBlockFetch) Size() int { return 32 }
