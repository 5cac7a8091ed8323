package contract

import (
	"strconv"
	"strings"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
)

// KeyOwnerFunc maps a world-state key (written by tx) to the organization
// that owns it. BIDL partitions execution results by key ownership: each
// related organization signs and publishes the writes to its own keys,
// which it always computes from fresh state (its own keys are only ever
// written by transactions it executes). See DESIGN.md for how this
// substitutes for the paper's whole-result comparison.
type KeyOwnerFunc func(key string, tx *types.Transaction) string

// SmallBankKeyOwner returns the ownership map for the SmallBank layout:
// account i belongs to organization i mod numOrgs; keys whose suffix is not
// a non-negative number (e.g. freshly created non-deterministic accounts)
// belong to the transaction's corresponding organization.
func SmallBankKeyOwner(numOrgs int) KeyOwnerFunc {
	names := make([]string, numOrgs)
	for i := range names {
		names[i] = types.OrgName(i)
	}
	return func(key string, tx *types.Transaction) string {
		// Keys look like "sb:chk:acct-<i>" / "sb:sav:acct-<i>".
		idx := strings.LastIndex(key, "acct-")
		if idx >= 0 {
			if i, err := strconv.Atoi(key[idx+len("acct-"):]); err == nil && i >= 0 {
				return names[i%numOrgs]
			}
		}
		return tx.CorrespondingOrg()
	}
}

// PartitionWrites appends the writes of rw owned by org to dst, a reused
// buffer where the partition is only digested, nil where it is kept.
func PartitionWrites(dst []ledger.Write, rw *ledger.RWSet, owner KeyOwnerFunc, tx *types.Transaction, org string) []ledger.Write {
	for _, w := range rw.Writes {
		o := owner(w.Key, tx)
		// Writes owned by a non-related organization fall to the
		// corresponding organization's partition.
		if !tx.RelatedTo(o) {
			o = tx.CorrespondingOrg()
		}
		if o == org {
			dst = append(dst, w)
		}
	}
	return dst
}
