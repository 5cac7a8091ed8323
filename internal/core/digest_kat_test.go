package core

import (
	"encoding/hex"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
)

// The known answers below pin the bytes a delegate signs and the digests
// consensus and normal nodes match on. Virtual time never depends on a
// digest's value, so a framing slip would pass every other test.

func katDigest(b byte) crypto.Digest {
	var d crypto.Digest
	for i := range d {
		d[i] = b + byte(i)
	}
	return d
}

func TestOrgResultBytesKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"ok", orgResultBytes(1, katDigest(0x10), "org-3", katDigest(0x40), false, false), "0000000000000001101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f6f72672d33404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f00"},
		{"aborted and inconsistent", orgResultBytes(0x0102030405060708, katDigest(0x20), "org-12", katDigest(0x80), true, true), "0102030405060708202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f6f72672d3132808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f03"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s: orgResultBytes = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestVectorDigestKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		e    ResultEntry
		want string
	}{
		{"empty vector", ResultEntry{Seq: 9, TxID: katDigest(1)}, "11085c98315c7b193aeff858239d6ef8ba8ab2f3ca5e6e39f879b42d7687c326"},
		{"three partitions", ResultEntry{Seq: 9, TxID: katDigest(1), Vector: []OrgResult{
			{Org: "org-12", Digest: katDigest(2), Inconsistent: true},
			{Org: "org-3", Digest: katDigest(3), Aborted: true, Writes: []ledger.Write{{Key: "k", Val: []byte("v")}}},
			{Org: "org-7", Digest: katDigest(4), Aborted: true, Inconsistent: true},
		}}, "0c185aed6bbae31a199c9a7f34eb9a3fa59fcd5cbbedda94c16af7188d211099"},
	} {
		d := c.e.VectorDigest()
		if got := hex.EncodeToString(d[:]); got != c.want {
			t.Errorf("%s: VectorDigest = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestContentKeyKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		e    PersistEntry
		want string
	}{
		{"consistent", PersistEntry{Seq: 4, TxID: katDigest(5), VecDigest: katDigest(6), Consistent: true, ResultDigest: katDigest(7),
			Writes: []ledger.Write{{Key: "sb:chk:acct-1", Val: []byte("900")}, {Key: "sb:sav:acct-1", Delete: true}}}, "3186742f83d509c756f27ee7d062a2ecc4bdcb14723b40ed44c1096cb232581b"},
		{"inconsistent and aborted", PersistEntry{Seq: 4, TxID: katDigest(5), VecDigest: katDigest(6), Aborted: true}, "d5786593a931f96c8f38e3bc9fe1ea59d17f6d185058d8e6a537a5163ced70b9"},
	} {
		d := c.e.contentKey()
		if got := hex.EncodeToString(d[:]); got != c.want {
			t.Errorf("%s: contentKey = %s, want %s", c.name, got, c.want)
		}
	}
}
