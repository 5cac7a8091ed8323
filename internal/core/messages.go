package core

import (
	"encoding/binary"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// SubmitBatch carries unsequenced transactions: a client's submissions to
// the leader's sequencer (Phase 1), a passive sequencer's forward, a client's
// retransmission to every consensus node and a consensus node's relay of it
// to the leader's sequencer (§4.5), and a 2PC decision the sharded harness
// hands a client. Each receiver role handles it one way.
type SubmitBatch struct {
	Txns []*types.Transaction
}

// Size implements simnet.Message.
func (m *SubmitBatch) Size() int {
	n := 16
	for _, t := range m.Txns {
		n += t.Size()
	}
	return n
}

// SeqBatch is the sequencer's multicast of sequenced transactions
// (Phase 2). Deliberately unsigned (§4.1).
type SeqBatch struct {
	View uint64
	Txns []types.SequencedTx

	size int // lazy Size cache; batches are immutable once multicast
	// ords are Txns' hashes' ordinals, resolved once by the sequencer
	// (resolve) for every receiver of that cluster; a batch built any other
	// way carries none and each receiver interns the hashes itself.
	ords dense.Ordinals[types.TxID]
}

// resolve fills the ordinal memo before the batch is shared.
func (m *SeqBatch) resolve(hashes *dense.Table[types.TxID]) {
	m.ords.Resolve(hashes, make([]uint32, len(m.Txns)), func(i int) types.TxID { return m.Txns[i].Tx.ID() })
}

// Size implements simnet.Message. Computed once and cached: the batch fans
// out to every consensus and normal node (and to each target separately in
// the multicast-disabled configuration), all sharing this object.
func (m *SeqBatch) Size() int {
	if m.size == 0 {
		n := 16
		for _, t := range m.Txns {
			n += t.Size()
		}
		m.size = n
	}
	return m.size
}

// BlockMsg disseminates an agreed block (hash list + certificate) from the
// leader consensus node to all nodes (end of Phase 3). Payloads are not
// included: nodes already hold them from the sequencer multicast
// (consensus-on-hash, §6).
type BlockMsg struct {
	Number uint64
	// Ordering is the encoded (seq, hash) list, the exact bytes agreed by
	// consensus.
	Ordering []byte
	Cert     *types.Certificate

	size    int // lazy Size cache; blocks are immutable once disseminated
	oDig    crypto.Digest
	hasODig bool
	// DecodeOrdering(Ordering), decoded once for every receiver (ordering).
	seqs    []uint64
	hashes  []types.TxID
	decErr  error
	decoded bool
	tip     types.TipBlock // the ledger block this commits (block)
	// ords are the hashes' ordinals, resolved once by the disseminating
	// leader (resolve); a block-fetch reply carries none.
	ords dense.Ordinals[types.TxID]
}

// resolve fills the ordinal memo before the block is shared.
func (m *BlockMsg) resolve(hashes *dense.Table[types.TxID]) {
	_, h, _ := m.ordering()
	m.ords.Resolve(hashes, make([]uint32, len(h)), func(i int) types.TxID { return h[i] })
}

// Size implements simnet.Message. Cached: the leader multicasts one shared
// object to every node.
func (m *BlockMsg) Size() int {
	if m.size == 0 {
		n := 8 + len(m.Ordering)
		if m.Cert != nil {
			n += m.Cert.Size()
		}
		m.size = n
	}
	return m.size
}

// OrderingDig returns the digest of the encoded ordering. Every receiver
// checks the certificate against this digest; since the message object is
// shared by all receivers and immutable in flight, the SHA-256 is computed
// once instead of once per node. (The virtual CPU cost each node charges for
// the check is unchanged — this only removes redundant host work.)
//
// Like every lazy cache on a multicast message, it is warmed by the sender
// (warmCaches) before dissemination, so receivers only read it.
func (m *BlockMsg) OrderingDig() crypto.Digest {
	if !m.hasODig {
		m.oDig = types.OrderingDigest(m.Ordering)
		m.hasODig = true
	}
	return m.oDig
}

// ordering returns the decoded Ordering: like OrderingDig a function of the
// shared bytes, warmed by a multicast's sender; receivers never write it.
func (m *BlockMsg) ordering() ([]uint64, []types.TxID, error) {
	if !m.decoded {
		m.seqs, m.hashes, m.decErr = types.DecodeOrdering(m.Ordering)
		m.decoded = true
	}
	return m.seqs, m.hashes, m.decErr
}

// warmCaches fills the lazy size/digest/ordering caches before the block is
// shared.
func (m *BlockMsg) warmCaches() {
	m.Size()
	m.OrderingDig()
	m.ordering()
}

// certified decodes a disseminated block and verifies its 2f+1 certificate
// (Algo 2 line 9), charging ctx one signature verification plus a MAC-rate
// scan of the shares: modern BFT deployments aggregate certificates.
func (c *Cluster) certified(m *BlockMsg, ctx *simnet.Context) (seqs []uint64, hashes []types.TxID, ok bool) {
	seqs, hashes, err := m.ordering()
	if err != nil || m.Cert == nil {
		return nil, nil, false
	}
	ctx.Elapse(c.Cfg.Costs.SigVerify + time.Duration(c.Cfg.quorum())*c.Cfg.Costs.MACVerify)
	// A zero-digest certificate over an empty ordering is a null block
	// (a new leader's sequence-hole filler): the quorum signed the zero
	// digest directly, so the ordering-digest equation does not apply.
	null := len(seqs) == 0 && m.Cert.Digest == (crypto.Digest{})
	ok = m.Cert.Number == m.Number && (null || m.Cert.Digest == m.OrderingDig()) &&
		m.Cert.Verify(c.Scheme, cnIdentity, c.Cfg.quorum())
	return seqs, hashes, ok
}

// block returns the ledger block a node with chain tip prev commits for this
// message, and its header digest.
func (m *BlockMsg) block(prev crypto.Digest) (*types.Block, crypto.Digest) {
	return m.tip.On(prev, func() *types.Block {
		seqs, hashes, _ := m.ordering()
		return &types.Block{Number: m.Number, Seqs: seqs, Hashes: hashes, Cert: m.Cert}
	})
}

// OrgResult is one organization's signed execution result for a transaction
// (§4.4): the writes to the keys the organization owns (its partition,
// always computed from fresh state), the partition digest the delegate
// signs, and two self-reported flags — Aborted (application-level abort)
// and Inconsistent (the delegate's redundant executions diverged,
// indicating a non-deterministic transaction).
type OrgResult struct {
	Org          string
	Digest       crypto.Digest
	Writes       []ledger.Write
	Aborted      bool
	Inconsistent bool
	Sig          crypto.Signature

	// wdOK marks that Digest was derived from Writes/Aborted at the one
	// honest construction site (makeOrgResult), letting receivers skip the
	// defensive write-set re-hash. Any partition built elsewhere (tests,
	// crafted messages) leaves it false and still gets fully re-checked;
	// virtual hash cost is charged either way.
	wdOK bool
}

// appendOrgResult appends what the delegate signs to buf; the digest covers
// the writes and the aborted flag, so signing digest+flags covers everything.
// Nodes append into a buffer they own and reuse, since the bytes reach the
// scheme through an interface and would not stay on the stack.
func appendOrgResult(buf []byte, seq uint64, id types.TxID, org string, digest crypto.Digest, aborted, inconsistent bool) []byte {
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, id[:]...)
	buf = append(buf, org...)
	buf = append(buf, digest[:]...)
	flags := byte(0)
	if aborted {
		flags |= 1
	}
	if inconsistent {
		flags |= 2
	}
	return append(buf, flags)
}

// OrgResultMsg carries signed per-org results from a related organization's
// delegate to the corresponding organization's delegate (Phase 4-2 step 1).
type OrgResultMsg struct {
	Entries []OrgResultEntry
}

// OrgResultEntry is one transaction's result from one organization.
type OrgResultEntry struct {
	Seq    uint64
	TxID   types.TxID
	Result OrgResult
}

// Size implements simnet.Message.
func (m *OrgResultMsg) Size() int {
	n := 16
	for _, e := range m.Entries {
		n += 8 + 32 + 16 + 32 + 64 + 2 + writesSize(e.Result.Writes)
	}
	return n
}

// ResultMsg carries approved result vectors from a corresponding-org
// delegate to all consensus nodes (Phase 4-2 step 2: the multi-write).
type ResultMsg struct {
	Entries []ResultEntry

	size int // lazy Size cache; one object is sent to every consensus node
}

// ResultEntry is one transaction's approved result vector r̄: one
// partitioned result per related organization. The canonical committed
// write set is the union of the partitions — the paper's "retrievable"
// result (§4.4): once persisted, every correct node can read and apply it.
type ResultEntry struct {
	Seq    uint64
	TxID   types.TxID
	Vector []OrgResult

	// memo holds what every consensus node derives from the vector. The
	// delegate that assembles the vector attaches it (warm) before the entry
	// is shared; copies of the entry share it. Entries built any other way
	// carry none and are derived afresh by each receiver.
	memo *resultMemo
}

// resultMemo is the part of evaluateResult that is a pure function of the
// vector: the PERSIST echo a consensus node sends for it, and whether each
// partition's write digest and signature check out (DESIGN.md §7.1).
type resultMemo struct {
	persist PersistEntry
	parts   []crypto.Verdict // parallel with Vector
	ord     [1]uint32        // holds persist.ord's one id, in the memo's allocation
}

// Consistent reports whether no organization flagged non-determinism.
func (e *ResultEntry) Consistent() bool {
	for _, r := range e.Vector {
		if r.Inconsistent {
			return false
		}
	}
	return len(e.Vector) > 0
}

// Aborted reports whether any organization aborted the transaction; an
// aborted transaction commits as a no-op everywhere, so disagreement on
// application-level aborts can never split the state.
func (e *ResultEntry) Aborted() bool {
	for _, r := range e.Vector {
		if r.Aborted {
			return true
		}
	}
	return false
}

// Union concatenates the per-org partitions in vector order into the
// canonical write set.
func (e *ResultEntry) Union() []ledger.Write {
	var out []ledger.Write
	for _, r := range e.Vector {
		out = append(out, r.Writes...)
	}
	return out
}

// VectorDigest canonically hashes the vector for persist matching.
func (e *ResultEntry) VectorDigest() crypto.Digest {
	var buf [512]byte
	b := crypto.AppendPart(buf[:0], e.TxID[:])
	for i := range e.Vector {
		r := &e.Vector[i]
		flags := byte(0)
		if r.Aborted {
			flags |= 1
		}
		if r.Inconsistent {
			flags |= 2
		}
		b = crypto.AppendPart(crypto.AppendPart(crypto.AppendPart(b, r.Org), r.Digest[:]), []byte{flags})
	}
	return crypto.Hash(b)
}

// derive computes the memo: the vector's digest, the union of the
// partitions, the common verdict flags and the result digest, as the PERSIST
// echo carries them, and one unknown verdict per partition.
func (e *ResultEntry) derive() *resultMemo {
	pe := PersistEntry{
		Seq: e.Seq, TxID: e.TxID, VecDigest: e.VectorDigest(),
		Consistent: e.Consistent(), Writes: e.Union(), Aborted: e.Aborted(),
	}
	pe.ResultDigest = (&ledger.RWSet{Writes: pe.Writes, Aborted: pe.Aborted}).Digest()
	pe.warmContentKey()
	return &resultMemo{persist: pe, parts: make([]crypto.Verdict, len(e.Vector))}
}

// warm attaches the memo; the assembling delegate calls it once so the
// consensus nodes neither re-derive the echo nor re-verify the partitions,
// and resolves the echo's keys in its state's table and its hash in the
// cluster's for the nodes that tally and apply it.
func (e *ResultEntry) warm(st *ledger.State, hashes *dense.Table[types.TxID]) {
	e.memo = e.derive()
	e.memo.persist.kids = st.Resolve(e.memo.persist.Writes)
	e.memo.persist.ord.Resolve(hashes, e.memo.ord[:], func(int) types.TxID { return e.TxID })
}

// hashIs reports whether TxID's ordinal in hashes is ord: the ordinal warm
// resolved, when that was in hashes, else the hash looked up by name.
func (e *ResultEntry) hashIs(hashes *dense.Table[types.TxID], ord uint32) bool {
	var memo dense.Ordinals[types.TxID] // none: Lookup goes by name
	if e.memo != nil {
		memo = e.memo.persist.ord
	}
	got, ok := memo.Lookup(hashes, 0, e.TxID)
	return ok && got == ord
}

// Size implements simnet.Message. Cached on the sender's first send.
func (m *ResultMsg) Size() int {
	if m.size == 0 {
		n := 16
		for _, e := range m.Entries {
			n += 8 + 32
			for _, r := range e.Vector {
				n += 16 + 32 + 64 + 2 + writesSize(r.Writes)
			}
		}
		m.size = n
	}
	return m.size
}

func writesSize(ws []ledger.Write) int {
	n := 0
	for _, w := range ws {
		n += len(w.Key) + len(w.Val) + 2
	}
	return n
}

// PersistMsg is a consensus node's batched PERSIST echo to all normal nodes
// (Algo 1 line 18). One signature covers the batch. Entries are shared, not
// copied: an honest node sends the echo its vector's memo holds, so one
// object per transaction reaches every normal node from every consensus node.
type PersistMsg struct {
	Node    int
	Entries []*PersistEntry
	Sig     crypto.Signature

	size int // lazy Size cache; persist echoes are immutable once multicast
	// signing is persistSigningBytes(Node, Entries), built once by sign, and
	// sigOK the outcome of checking Sig over it as Node: one serialisation
	// and one real verification per message, however many nodes receive it.
	signing []byte
	sigOK   crypto.Verdict
	// stream marks a multicast: only those make up the normal nodes' shared
	// PERSIST stream.
	stream bool
}

// sign serialises the batch once, signs it with the sending consensus node's
// signer and forgets any verdict on an earlier signature.
func (m *PersistMsg) sign(signer func([]byte) crypto.Signature) {
	m.signing = persistSigningBytes(m.Node, m.Entries)
	m.Sig = signer(m.signing)
	m.sigOK.Reset()
}

// authentic reports whether Sig is m.Node's signature over the batch.
func (m *PersistMsg) authentic(scheme crypto.Scheme) bool {
	return m.sigOK.Check(uint32(m.Node), func() bool {
		signing := m.signing
		if signing == nil {
			// Built without sign: nothing to share, serialise locally.
			signing = persistSigningBytes(m.Node, m.Entries)
		}
		return scheme.Verify(cnIdentity(m.Node), signing, m.Sig)
	})
}

// PersistEntry acknowledges one persisted result vector and carries the
// canonical result so normal nodes can adopt it (§4.4 retrievability).
type PersistEntry struct {
	Seq        uint64
	TxID       types.TxID
	VecDigest  crypto.Digest
	Consistent bool
	// ResultDigest is the common result digest when Consistent.
	ResultDigest crypto.Digest
	Writes       []ledger.Write
	Aborted      bool

	// ck caches contentKey. It is filled by the sender (warmContentKey)
	// before the entry is shared, never lazily by receivers: a multicast
	// batch is read by every org delegate.
	ck   crypto.Digest
	ckOK bool
	// kids is Writes' keys as ids in the assembling delegate's key table, and
	// ord TxID's ordinal in its cluster's hash table (ResultEntry.warm), so
	// every node of the deployment applies the result by array index and finds
	// the hash's record without a lookup; empty on an entry built any other way.
	kids ledger.KeyIDs
	ord  dense.Ordinals[types.TxID]
}

// contentKey digests the entry's full content; normal nodes count PERSIST
// votes per content key so that 2f+1 votes imply f+1 honest nodes vouch for
// every field, not just the vector digest. The cache is sound even against
// a byzantine sender: it memoizes a pure function of the entry's fields, so
// a warmed key always matches what the receiver would have computed.
func (e *PersistEntry) contentKey() crypto.Digest {
	if e.ckOK {
		return e.ck
	}
	rw := ledger.RWSet{Writes: e.Writes, Aborted: e.Aborted}
	wd := rw.Digest()
	flags := byte(0)
	if e.Consistent {
		flags |= 1
	}
	return crypto.HashAll(e.TxID[:], e.VecDigest[:], e.ResultDigest[:], wd[:], []byte{flags})
}

// warmContentKey fills the contentKey cache; senders call it once per entry
// so the O(consensus × orgs) receivers skip the write-set hash entirely.
func (e *PersistEntry) warmContentKey() {
	e.ck, e.ckOK = e.contentKey(), true
}

// persistSigningBytes covers the batch content: the node's index in 4 bytes,
// then each entry's sequence number and content key, which digests every
// other field (the write set with Aborted included). 40 bytes an entry, in
// one exact-size allocation.
func persistSigningBytes(node int, entries []*PersistEntry) []byte {
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+40*len(entries)), uint32(node))
	for _, e := range entries {
		ck := e.contentKey()
		buf = append(binary.BigEndian.AppendUint64(buf, e.Seq), ck[:]...)
	}
	return buf
}

// Size implements simnet.Message. Cached: one shared object fans out to all
// normal nodes.
func (m *PersistMsg) Size() int {
	if m.size == 0 {
		n := 16 + len(m.Sig)
		for _, e := range m.Entries {
			n += 8 + 32 + 32 + 2 + 32 + writesSize(e.Writes)
		}
		m.size = n
	}
	return m.size
}

// FetchReq asks a consensus node for transaction payloads missing locally
// (checkProp retransmission, §4.2; also loss recovery, §6.4).
type FetchReq struct {
	Hashes []types.TxID
}

// Size implements simnet.Message.
func (m *FetchReq) Size() int { return 16 + len(m.Hashes)*32 }

// FetchResp returns the requested payloads with their sequence numbers.
type FetchResp struct {
	Txns []types.SequencedTx
}

// Size implements simnet.Message.
func (m *FetchResp) Size() int {
	n := 16
	for _, t := range m.Txns {
		n += t.Size()
	}
	return n
}

// PersistFetchReq asks consensus nodes to re-send their stored PERSIST
// entries for stalled sequence numbers (loss recovery for the persist
// protocol).
type PersistFetchReq struct {
	Seqs []uint64
}

// Size implements simnet.Message.
func (m *PersistFetchReq) Size() int { return 16 + 8*len(m.Seqs) }

// ChainStatus is a leader consensus node's periodic advertisement of its
// processed chain height, letting normal nodes detect and recover lost
// block disseminations.
type ChainStatus struct {
	Height uint64
}

// Size implements simnet.Message.
func (m *ChainStatus) Size() int { return 16 }

// BlockFetchReq asks a consensus node for blocks [From, To).
type BlockFetchReq struct {
	From, To uint64
}

// Size implements simnet.Message.
func (m *BlockFetchReq) Size() int { return 24 }

// DenyUpdate propagates newly denylisted clients from a consensus node to
// normal nodes (§4.6 step 3 aftermath).
type DenyUpdate struct {
	Node    int
	Clients []crypto.Identity
	Sig     crypto.Signature
}

// denySigningBytes covers the node's index in 4 bytes and each client.
func denySigningBytes(node int, clients []crypto.Identity) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(node))
	for _, c := range clients {
		buf = append(buf, c...)
		buf = append(buf, 0)
	}
	return buf
}

// Size implements simnet.Message.
func (m *DenyUpdate) Size() int {
	n := 16 + len(m.Sig)
	for _, c := range m.Clients {
		n += len(c)
	}
	return n
}
