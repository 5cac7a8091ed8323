package fabric

import (
	"errors"
	"fmt"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// checkReplay is the sequential-replay oracle for the Fabric baselines: the
// orderers' agreed chain, validated one envelope at a time on a fresh state
// over gen's accounts, must leave the state every peer holds. It asks the
// peers nothing and trusts no verdict they memoised: VSCC is recomputed from
// each envelope's endorsements, then MVCC runs against the replay itself,
// and a valid envelope's writes apply at once.
func checkReplay(t *testing.T, c *Cluster, gen *workload.Generator) {
	t.Helper()
	if err := replayMismatch(c, gen); err != nil {
		t.Fatal(err)
	}
}

// replayMismatch is checkReplay's verdict: nil when every peer is at the
// chain's height and holds the replay, else an error naming every peer that
// is not.
func replayMismatch(c *Cluster, gen *workload.Generator) error {
	want := ledger.NewStateOn(c.Keys)
	gen.Prepopulate(want)
	chain, err := agreedChain(c)
	if err != nil {
		return err
	}
	replayed := make(map[types.TxID]bool)
	rejected, conflicts := 0, 0
	for num, envs := range chain {
		for i, env := range envs {
			id := env.Tx.ID()
			if replayed[id] {
				continue // a repeated transaction commits once
			}
			replayed[id] = true
			switch {
			case env.Aborted:
			case !replayEndorsed(c.Scheme, env):
				rejected++
			case !ledger.ValidateMVCC(want, &ledger.RWSet{Reads: env.Reads}):
				conflicts++
			default:
				want.Apply(env.Writes, ledger.Version{Block: uint64(num), Tx: i})
			}
		}
	}
	var offenders []error
	for _, org := range c.Peers {
		for j, p := range org {
			if p.CommitHeight() != uint64(len(chain)) {
				offenders = append(offenders, fmt.Errorf("peer %s/%d at height %d, the orderers' chain at %d",
					p.orgName, j, p.CommitHeight(), len(chain)))
			} else if !p.State().Equal(want) {
				offenders = append(offenders, fmt.Errorf("peer %s/%d differs from the sequential replay of %d transactions (%d rejected by VSCC, %d MVCC conflicts)",
					p.orgName, j, len(replayed), rejected, conflicts))
			}
		}
	}
	return errors.Join(offenders...)
}

// agreedChain returns the envelopes of every block the orderers agreed on,
// by number. Every orderer builds each agreed block from the payloads it
// holds; one that misses payloads (a FastFabric follower holds none) builds
// a shorter list, so the replay takes the fullest, and every other orderer's
// block must be a subsequence of it.
func agreedChain(c *Cluster) ([][]*Envelope, error) {
	var height uint64
	for _, o := range c.Orderers {
		height = max(height, o.chainHeight)
	}
	chain := make([][]*Envelope, height)
	for num := range chain {
		for _, o := range c.Orderers {
			if b := o.delivered[uint64(num)]; b != nil && len(b.Envs) > len(chain[num]) {
				chain[num] = b.Envs
			}
		}
		for i, o := range c.Orderers {
			b := o.delivered[uint64(num)]
			if b == nil {
				continue
			}
			k := 0
			for _, env := range chain[num] {
				if k < len(b.Envs) && b.Envs[k].Tx.ID() == env.Tx.ID() {
					k++
				}
			}
			if k != len(b.Envs) {
				return nil, fmt.Errorf("orderer %d's block %d is not a subsequence of the fullest one", i, num)
			}
		}
	}
	return chain, nil
}

// replayEndorsed is VSCC computed from scratch: one endorsement per related
// organization and no other, each of the envelope's write-set digest and
// signed by its organization.
func replayEndorsed(scheme crypto.Scheme, env *Envelope) bool {
	if len(env.Endorsements) != len(env.Tx.Orgs) {
		return false
	}
	dig := (&ledger.RWSet{Writes: env.Writes, Aborted: env.Aborted}).Digest()
	seen := make(map[string]bool)
	for _, e := range env.Endorsements {
		if seen[e.Org] || !env.Tx.RelatedTo(e.Org) || e.Digest != dig {
			return false
		}
		seen[e.Org] = true
		id := env.Tx.ID()
		msg := append(append(append([]byte(nil), id[:]...), e.Org...), dig[:]...)
		if !scheme.Verify(crypto.Identity(e.Org), msg, e.Sig) {
			return false
		}
	}
	return true
}
