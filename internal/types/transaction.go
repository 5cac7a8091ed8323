// Package types defines the wire-level data structures shared by BIDL and
// the baseline frameworks: client transactions, sequenced transactions,
// blocks, and quorum certificates, together with a compact binary codec so
// that simulated message sizes reflect a real serialization format.
package types

import (
	"strconv"
	"strings"

	"github.com/bidl-framework/bidl/internal/crypto"
)

// TxID is the SHA-256 digest identifying a transaction (its replay-check and
// consensus-on-hash handle, §4.1/§6).
type TxID = crypto.Digest

// DefaultTxPadding pads encoded transactions to roughly the paper's default
// 1 KB transaction size.
const DefaultTxPadding = 840

// Transaction is a client-signed request: ⟨Txn, 𝒯, O, v, pk⟩σc in the
// paper's notation (§4.1). The contract invocation (Contract/Fn/Args) is the
// payload 𝒯; Orgs is the related-organization list O; View is v.
type Transaction struct {
	// Client is the submitting client's identity (stands in for pk; the
	// membership registry maps identities to keys).
	Client crypto.Identity
	// Nonce makes otherwise-identical invocations distinct.
	Nonce uint64
	// View is the view number the client fetched before submitting.
	View uint64
	// Contract and Fn name the smart contract and function to invoke.
	Contract string
	Fn       string
	// Args are the invocation arguments.
	Args [][]byte
	// Orgs lists the related organizations; the first is the corresponding
	// organization o_c whose delegate drives the persist protocol (§4.4).
	Orgs []string
	// Padding models payload bytes beyond the structured fields, so that
	// encoded transactions match the paper's ~1 KB default.
	Padding uint32
	// Sig is the client's signature over SigningBytes.
	Sig crypto.Signature

	id    TxID
	hasID bool
	// signing caches SigningBytes and size caches Size: transactions are
	// immutable once signed (like the id cache above), yet both used to be
	// recomputed — a full re-marshal per call — at every verification and
	// bandwidth-accounting site. Sign invalidates all three caches.
	signing []byte
	size    int
}

// SigningBytes returns the canonical encoding covered by the client
// signature (everything except the signature itself). The encoding is
// computed once and cached; callers must not mutate the returned slice.
func (t *Transaction) SigningBytes() []byte {
	if t.signing == nil {
		var e enc
		t.encodeBody(&e)
		t.signing = e.buf
	}
	return t.signing
}

func (t *Transaction) encodeBody(e *enc) {
	e.str(string(t.Client))
	e.u64(t.Nonce)
	e.u64(t.View)
	e.str(t.Contract)
	e.str(t.Fn)
	e.u32(uint32(len(t.Args)))
	for _, a := range t.Args {
		e.bytes(a)
	}
	e.u32(uint32(len(t.Orgs)))
	for _, o := range t.Orgs {
		e.str(o)
	}
	e.u32(t.Padding)
}

// Marshal encodes the transaction including its signature.
func (t *Transaction) Marshal() []byte {
	var e enc
	t.encodeBody(&e)
	e.bytes(t.Sig)
	return e.buf
}

// UnmarshalTransaction decodes a transaction produced by Marshal.
func UnmarshalTransaction(buf []byte) (*Transaction, error) {
	d := &dec{buf: buf}
	t, err := decodeTransaction(d)
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

func decodeTransaction(d *dec) (*Transaction, error) {
	t := &Transaction{}
	t.Client = crypto.Identity(d.str())
	t.Nonce = d.u64()
	t.View = d.u64()
	t.Contract = d.str()
	t.Fn = d.str()
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		t.Args = append(t.Args, d.bytes())
	}
	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		t.Orgs = append(t.Orgs, d.str())
	}
	t.Padding = d.u32()
	t.Sig = crypto.Signature(d.bytes())
	if d.err != nil {
		return nil, d.err
	}
	return t, nil
}

// ID returns the transaction's digest over the signed bytes. It is cached:
// transactions are immutable once signed.
func (t *Transaction) ID() TxID {
	if !t.hasID {
		t.id = crypto.Hash(t.SigningBytes())
		t.hasID = true
	}
	return t.id
}

// Size returns the wire size in bytes, including padding, for bandwidth
// accounting. It is computed arithmetically — mirroring the enc layout
// field-for-field — and cached, so the hot paths (per-hop bandwidth
// accounting, replay-check hash costing) never re-marshal the transaction.
// TestTransactionSizeMatchesMarshal pins Size() == len(Marshal())+Padding.
func (t *Transaction) Size() int {
	if t.size == 0 {
		n := 4 + len(t.Client) + 8 + 8 + 4 + len(t.Contract) + 4 + len(t.Fn) + 4
		for _, a := range t.Args {
			n += 4 + len(a)
		}
		n += 4
		for _, o := range t.Orgs {
			n += 4 + len(o)
		}
		n += 4 + 4 + len(t.Sig) // padding field + signature
		t.size = n + int(t.Padding)
	}
	return t.size
}

// Sign signs the transaction as its client using the given scheme, caching
// the resulting ID. Mutating any field after Sign invalidates no caches;
// transactions are immutable once signed.
func (t *Transaction) Sign(scheme crypto.Scheme) error {
	t.signing = nil
	t.size = 0
	sig, err := scheme.Sign(t.Client, t.SigningBytes())
	if err != nil {
		return err
	}
	t.Sig = sig
	t.hasID = false
	t.ID()
	return nil
}

// Warm forces the lazy caches (signing bytes, ID, wire size) to be computed
// now. Transactions are immutable once signed, but the caches are filled on
// first use; under the parallel simulation engine a transaction handed to
// another partition must have them pre-computed so that two partitions never
// race on the first fill. Cluster injection points call this before a
// transaction crosses a partition boundary.
func (t *Transaction) Warm() {
	t.SigningBytes()
	t.ID()
	t.Size()
}

// VerifySig reports whether the client signature is valid.
func (t *Transaction) VerifySig(scheme crypto.Scheme) bool {
	return scheme.Verify(t.Client, t.SigningBytes(), t.Sig)
}

// CorrespondingOrg returns the first related organization (o_c, §4.4), or ""
// if the transaction names none.
func (t *Transaction) CorrespondingOrg() string {
	if len(t.Orgs) == 0 {
		return ""
	}
	return t.Orgs[0]
}

// OrgPrefix starts every organization name; OrgName and OrgIndex are the one
// definition of the "org<i>" naming that Transaction.Orgs, the membership
// registry, endpoint names and the fee-schedule keys all use.
const OrgPrefix = "org"

// OrgName returns organization i's name.
func OrgName(i int) string { return OrgPrefix + strconv.Itoa(i) }

// OrgIndex parses an organization name back to its index. It returns -1
// unless name is exactly OrgName(i) for some 0 <= i < 10^9 (no sign, no
// leading zeros), and allocates nothing.
func OrgIndex(name string) int {
	s, ok := strings.CutPrefix(name, OrgPrefix)
	if !ok || s == "" || len(s) > 9 || (len(s) > 1 && s[0] == '0') {
		return -1
	}
	i := 0
	for _, c := range []byte(s) {
		if c < '0' || c > '9' {
			return -1
		}
		i = i*10 + int(c-'0')
	}
	return i
}

// RelatedTo reports whether org must execute this transaction (§4.3).
func (t *Transaction) RelatedTo(org string) bool {
	for _, o := range t.Orgs {
		if o == org {
			return true
		}
	}
	return false
}

// SequencedTx is a transaction carrying the sequence number assigned by the
// sequencer in Phase 2. Deliberately unsigned: §4.1 explains why BIDL
// eliminates signatures on sequence numbers.
type SequencedTx struct {
	Seq uint64
	Tx  *Transaction
}

// Size implements simnet.Message.
func (s *SequencedTx) Size() int { return 8 + s.Tx.Size() }
