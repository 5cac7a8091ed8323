package types

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/bidl-framework/bidl/internal/crypto"
)

func sampleTx() *Transaction {
	return &Transaction{
		Client:   "client-1",
		Nonce:    42,
		View:     3,
		Contract: "smallbank",
		Fn:       "send_payment",
		Args:     [][]byte{[]byte("acct-1"), []byte("acct-2"), []byte("100")},
		Orgs:     []string{"org1", "org2"},
		Padding:  DefaultTxPadding,
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := sampleTx()
	scheme := crypto.NewHMACScheme([]byte("s"))
	scheme.Register(tx.Client)
	if err := tx.Sign(scheme); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTransaction(tx.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Client != tx.Client || got.Nonce != tx.Nonce || got.View != tx.View ||
		got.Contract != tx.Contract || got.Fn != tx.Fn {
		t.Fatalf("scalar fields mismatch: %+v vs %+v", got, tx)
	}
	if !reflect.DeepEqual(got.Args, tx.Args) || !reflect.DeepEqual(got.Orgs, tx.Orgs) {
		t.Fatal("slices mismatch after round trip")
	}
	if got.ID() != tx.ID() {
		t.Fatal("ID changed across round trip")
	}
	if !got.VerifySig(scheme) {
		t.Fatal("signature invalid after round trip")
	}
}

func TestTransactionIDBindsFields(t *testing.T) {
	a, b := sampleTx(), sampleTx()
	b.Nonce++
	if a.ID() == b.ID() {
		t.Fatal("different transactions share an ID")
	}
	c := sampleTx()
	c.Args = [][]byte{[]byte("acct-1"), []byte("acct-2"), []byte("101")}
	if a.ID() == c.ID() {
		t.Fatal("argument change did not change ID")
	}
}

func TestSignatureVerification(t *testing.T) {
	scheme := crypto.NewHMACScheme([]byte("s"))
	scheme.Register("client-1")
	scheme.Register("client-2")
	tx := sampleTx()
	if err := tx.Sign(scheme); err != nil {
		t.Fatal(err)
	}
	if !tx.VerifySig(scheme) {
		t.Fatal("valid signature rejected")
	}
	forged := sampleTx()
	forged.Nonce = 1000
	forged.Sig = tx.Sig
	if forged.VerifySig(scheme) {
		t.Fatal("signature verified over different content")
	}
	stolen := sampleTx()
	stolen.Client = "client-2"
	stolen.Sig = tx.Sig
	if stolen.VerifySig(scheme) {
		t.Fatal("client-1 signature verified for client-2")
	}
}

func TestTxSizeAboutOneKB(t *testing.T) {
	tx := sampleTx()
	scheme := crypto.NewHMACScheme([]byte("s"))
	scheme.Register(tx.Client)
	if err := tx.Sign(scheme); err != nil {
		t.Fatal(err)
	}
	size := tx.Size()
	if size < 900 || size > 1200 {
		t.Fatalf("default transaction size = %d, want ~1KB", size)
	}
}

func TestRelatedOrgHelpers(t *testing.T) {
	tx := sampleTx()
	if tx.CorrespondingOrg() != "org1" {
		t.Fatalf("corresponding org = %q, want org1", tx.CorrespondingOrg())
	}
	if !tx.RelatedTo("org2") || tx.RelatedTo("org9") {
		t.Fatal("RelatedTo incorrect")
	}
	empty := &Transaction{}
	if empty.CorrespondingOrg() != "" {
		t.Fatal("empty transaction should have no corresponding org")
	}
}

func TestOrgNameRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 96, 12345, 999999999} {
		if got := OrgIndex(OrgName(i)); got != i {
			t.Errorf("OrgIndex(OrgName(%d)) = %d", i, got)
		}
	}
	for _, name := range []string{"", "org", "org-1", "org+1", "orgx", "organ3", "org3x", "org03", "Org3", "org1000000000"} {
		if got := OrgIndex(name); got != -1 {
			t.Errorf("OrgIndex(%q) = %d, want -1", name, got)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { OrgIndex("org42") }); allocs != 0 {
		t.Errorf("OrgIndex allocates %v per call, want 0 (it sits on the result-dispatch path)", allocs)
	}
}

func TestUnmarshalCorruptInputs(t *testing.T) {
	tx := sampleTx()
	buf := tx.Marshal()
	// Every strict prefix must fail cleanly, never panic.
	for i := 0; i < len(buf); i++ {
		if _, err := UnmarshalTransaction(buf[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", i)
		}
	}
	// Trailing garbage must fail.
	if _, err := UnmarshalTransaction(append(append([]byte{}, buf...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Hostile length field must not over-allocate.
	hostile := append([]byte{}, buf...)
	hostile[0], hostile[1], hostile[2], hostile[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := UnmarshalTransaction(hostile); err == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestPropertyTransactionRoundTrip(t *testing.T) {
	f := func(client string, nonce, view uint64, fn string, arg1, arg2 []byte, pad uint16) bool {
		tx := &Transaction{
			Client:   crypto.Identity(client),
			Nonce:    nonce,
			View:     view,
			Contract: "c",
			Fn:       fn,
			Args:     [][]byte{arg1, arg2},
			Orgs:     []string{"o1"},
			Padding:  uint32(pad),
			Sig:      crypto.Signature([]byte("sig")),
		}
		got, err := UnmarshalTransaction(tx.Marshal())
		if err != nil {
			return false
		}
		return got.ID() == tx.ID() && bytes.Equal(got.Args[0], arg1) && bytes.Equal(got.Args[1], arg2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockHeaderDigest(t *testing.T) {
	tx1, tx2 := sampleTx(), sampleTx()
	tx2.Nonce = 43
	b := &Block{
		Number: 7,
		Seqs:   []uint64{100, 101},
		Hashes: []TxID{tx1.ID(), tx2.ID()},
	}
	d1 := b.HeaderDigest()
	// Reordering transactions must change the digest.
	b2 := &Block{
		Number: 7,
		Seqs:   []uint64{101, 100},
		Hashes: []TxID{tx2.ID(), tx1.ID()},
	}
	if d1 == b2.HeaderDigest() {
		t.Fatal("reordered block has same digest")
	}
	// Payload attachment must NOT change the digest (consensus-on-hash).
	b3 := &Block{Number: 7, Seqs: b.Seqs, Hashes: b.Hashes, Txns: []*Transaction{tx1, tx2}}
	if d1 != b3.HeaderDigest() {
		t.Fatal("payload attachment changed header digest")
	}
}

func TestBlockSizes(t *testing.T) {
	tx := sampleTx()
	b := &Block{Number: 1, Seqs: []uint64{1}, Hashes: []TxID{tx.ID()}}
	hashOnly := b.HashOnlySize()
	b.Txns = []*Transaction{tx}
	if b.Size() != hashOnly+tx.Size() {
		t.Fatalf("full size %d != hash-only %d + tx %d", b.Size(), hashOnly, tx.Size())
	}
	if hashOnly >= tx.Size() {
		t.Fatal("hash-only block should be far smaller than one 1KB txn")
	}
}

func TestCertificateVerify(t *testing.T) {
	scheme := crypto.NewHMACScheme([]byte("s"))
	ident := func(i int) crypto.Identity {
		return crypto.Identity("node-" + string(rune('0'+i)))
	}
	for i := 0; i < 4; i++ {
		scheme.Register(ident(i))
	}
	digest := crypto.Hash([]byte("block"))
	cert := &Certificate{View: 1, Number: 5, Digest: digest}
	msg := CertSigningBytes(1, 5, digest)
	for i := 0; i < 3; i++ {
		sig, _ := scheme.Sign(ident(i), msg)
		cert.Sigs = append(cert.Sigs, NodeSig{Node: i, Sig: sig})
	}
	if !cert.Verify(scheme, ident, 3) {
		t.Fatal("valid 3-sig certificate rejected at quorum 3")
	}
	if cert.Verify(scheme, ident, 4) {
		t.Fatal("3-sig certificate accepted at quorum 4")
	}
	// Duplicate signatures must not count twice.
	dup := &Certificate{View: 1, Number: 5, Digest: digest,
		Sigs: []NodeSig{cert.Sigs[0], cert.Sigs[0], cert.Sigs[0]}}
	if dup.Verify(scheme, ident, 2) {
		t.Fatal("duplicate node signatures counted toward quorum")
	}
	// Forged signature must not count.
	bad := &Certificate{View: 1, Number: 5, Digest: digest,
		Sigs: []NodeSig{{Node: 0, Sig: crypto.Signature([]byte("junk"))}, cert.Sigs[1], cert.Sigs[2]}}
	if bad.Verify(scheme, ident, 3) {
		t.Fatal("forged signature counted toward quorum")
	}
	// Wrong-view certificate must fail.
	wrongView := &Certificate{View: 2, Number: 5, Digest: digest, Sigs: cert.Sigs}
	if wrongView.Verify(scheme, ident, 3) {
		t.Fatal("certificate verified under wrong view")
	}
}

// countingScheme counts the real verifications a run performs.
type countingScheme struct {
	crypto.Scheme
	verifies int
}

func (s *countingScheme) Verify(id crypto.Identity, msg []byte, sig crypto.Signature) bool {
	s.verifies++
	return s.Scheme.Verify(id, msg, sig)
}

// TestCertificateVerifyMemo: one certificate object is really verified once
// per quorum size however many nodes check it; another object with the same
// content but a junk share, or a share made with another node's key, is
// rejected on every check even after its authentic twin was accepted.
func TestCertificateVerifyMemo(t *testing.T) {
	scheme := &countingScheme{Scheme: crypto.NewHMACScheme([]byte("s"))}
	ident := func(i int) crypto.Identity { return crypto.Identity("node-" + string(rune('0'+i))) }
	for i := 0; i < 4; i++ {
		scheme.Register(ident(i))
	}
	digest := crypto.Hash([]byte("block"))
	msg := CertSigningBytes(1, 5, digest)
	sigs := make([]NodeSig, 3)
	for i := range sigs {
		sig, _ := scheme.Sign(ident(i), msg)
		sigs[i] = NodeSig{Node: i, Sig: sig}
	}
	cert := &Certificate{View: 1, Number: 5, Digest: digest, Sigs: sigs}
	for node := 0; node < 50; node++ {
		if !cert.Verify(scheme, ident, 3) {
			t.Fatal("authentic certificate rejected")
		}
	}
	if scheme.verifies != len(sigs) {
		t.Fatalf("%d share verifications over 50 checks of one certificate, want %d", scheme.verifies, len(sigs))
	}

	junk := &Certificate{View: 1, Number: 5, Digest: digest,
		Sigs: []NodeSig{{Node: 0, Sig: crypto.Signature("junk")}, sigs[1], sigs[2]}}
	wrongKey := &Certificate{View: 1, Number: 5, Digest: digest,
		Sigs: []NodeSig{{Node: 3, Sig: sigs[0].Sig}, sigs[1], sigs[2]}} // node 0's share claimed by node 3
	for node := 0; node < 50; node++ {
		if junk.Verify(scheme, ident, 3) {
			t.Fatal("junk share counted toward quorum")
		}
		if wrongKey.Verify(scheme, ident, 3) {
			t.Fatal("share under the wrong identity counted toward quorum")
		}
	}
	// The quorum size is part of the question asked.
	if cert.Verify(scheme, ident, 4) || !cert.Verify(scheme, ident, 2) {
		t.Fatal("verdict for quorum 3 answered another quorum size")
	}
}

func TestSequencedTxSize(t *testing.T) {
	tx := sampleTx()
	s := &SequencedTx{Seq: 9, Tx: tx}
	if s.Size() != 8+tx.Size() {
		t.Fatalf("sequenced size %d, want %d", s.Size(), 8+tx.Size())
	}
}
