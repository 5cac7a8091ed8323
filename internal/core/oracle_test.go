package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// checkReplay is the sequential-replay oracle (§4.4): speculative parallel
// execution, re-execution of conflicts and the abort of non-deterministic
// transactions must together leave the state that executing the agreed order
// one transaction at a time leaves. Every normal node applies every committed
// write set, so each of them, in every organization, must be at consensus
// node 0's height and hold that one replay. It asks the nodes nothing: the
// order is consensus node 0's chain, the payloads are what the clients
// submitted, and the replay runs on a fresh state over gen's accounts.
func checkReplay(t *testing.T, c *Cluster, gen *workload.Generator, submitted []*types.Transaction) {
	t.Helper()
	if err := replayMismatch(c, gen, submitted); err != nil {
		t.Fatal(err)
	}
}

// replayMismatch is checkReplay's verdict: nil when every normal node holds
// the replay, else the first that does not.
func replayMismatch(c *Cluster, gen *workload.Generator, submitted []*types.Transaction) error {
	offenders, err := replayOffenders(c, gen, submitted)
	if err == nil && len(offenders) > 0 {
		err = offenders[0]
	}
	return err
}

// replayOffender is a normal node that does not hold the replay.
type replayOffender struct {
	node   *NormalNode
	reason string
}

func (o replayOffender) Error() string { return o.reason }

// replayOffenders replays consensus node 0's chain and returns every normal
// node that is not at its height or differs from the replay; the error is
// for a chain that cannot be replayed.
func replayOffenders(c *Cluster, gen *workload.Generator, submitted []*types.Transaction) ([]replayOffender, error) {
	byID := make(map[types.TxID]*types.Transaction, len(submitted))
	for _, tx := range submitted {
		byID[tx.ID()] = tx
	}
	want := ledger.NewStateOn(c.Keys)
	gen.Prepopulate(want)
	chain := c.ConsNodes[0].blocks
	replayed := make(map[types.TxID]bool)
	// Two independent sources: a transaction that reads its randomness
	// diverges between them, the way a node's redundant execution does.
	r1, r2 := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	aborts := 0
	for num := uint64(0); num < chain.Height(); num++ {
		for i, h := range chain.Get(num).Hashes {
			if replayed[h] {
				continue // a repeated hash commits once
			}
			replayed[h] = true
			tx := byID[h]
			if tx == nil {
				return nil, fmt.Errorf("block %d agrees on %x, which no client submitted", num, h[:4])
			}
			rw := c.Registry.Execute(want, tx, r1)
			if rw.Aborted || rw.Digest() != c.Registry.Execute(want, tx, r2).Digest() {
				aborts++ // an abort applies nothing
				continue
			}
			want.Apply(rw.Writes, ledger.Version{Block: num, Tx: i})
		}
	}
	var offenders []replayOffender
	for o, org := range c.Orgs {
		for j, nn := range org {
			if nn.CommitHeight() != chain.Height() {
				offenders = append(offenders, replayOffender{nn, fmt.Sprintf("normal node %s/%d at height %d, consensus node 0 at %d",
					types.OrgName(o), j, nn.CommitHeight(), chain.Height())})
			} else if !nn.State().Equal(want) {
				offenders = append(offenders, replayOffender{nn, fmt.Sprintf("normal node %s/%d differs from the sequential replay of %d transactions (%d aborted)",
					types.OrgName(o), j, len(replayed), aborts)})
			}
		}
	}
	return offenders, nil
}
