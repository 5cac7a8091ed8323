package contract

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
)

// TestSmallBankKeyOwner: an account number names its org modulo the org
// count; every other suffix (negative, overflowing, not a number) falls to
// the transaction's corresponding org rather than naming an org that does
// not exist.
func TestSmallBankKeyOwner(t *testing.T) {
	owner := SmallBankKeyOwner(4)
	tx := &types.Transaction{Orgs: []string{"org2", "org1"}}
	for _, c := range []struct{ key, want string }{
		{"sb:chk:acct-7", "org3"},
		{"sb:sav:acct-12", "org0"},
		{"sb:chk:acct-0", "org0"},
		{"sb:chk:acct--7", "org2"},
		{"sb:chk:acct--8", "org2"},
		{"sb:chk:acct-99999999999999999999", "org2"},
		{"sb:chk:acct-x1", "org2"},
		{"sb:chk:acct-", "org2"},
		{"sb:chk:nd-5", "org2"},
	} {
		if got := owner(c.key, tx); got != c.want {
			t.Errorf("owner(%q) = %q, want %q", c.key, got, c.want)
		}
	}
	if got := owner("sb:chk:acct--1", &types.Transaction{}); got != "" {
		t.Errorf("owner of a negative account without related orgs = %q, want \"\"", got)
	}
}

// TestPartitionWritesAppends: a partition appends to the buffer it is given,
// so a caller may reuse one, and writes owned by an unrelated org fall to
// the corresponding org.
func TestPartitionWritesAppends(t *testing.T) {
	owner := SmallBankKeyOwner(4)
	tx := &types.Transaction{Orgs: []string{"org1", "org2"}}
	rw := &ledger.RWSet{Writes: []ledger.Write{
		{Key: "sb:chk:acct-1"}, {Key: "sb:chk:acct-2"}, {Key: "sb:chk:acct-3"},
	}}
	buf := make([]ledger.Write, 0, 4)
	part := PartitionWrites(buf, rw, owner, tx, "org1")
	if len(part) != 2 || part[0].Key != "sb:chk:acct-1" || part[1].Key != "sb:chk:acct-3" || &part[:1][0] != &buf[:1][0] {
		t.Fatalf("org1's partition = %+v, want acct-1 and the unrelated org3's acct-3 in the given buffer", part)
	}
	if part := PartitionWrites(nil, rw, owner, tx, "org2"); len(part) != 1 || part[0].Key != "sb:chk:acct-2" {
		t.Fatalf("org2's partition = %+v, want acct-2", part)
	}
}
