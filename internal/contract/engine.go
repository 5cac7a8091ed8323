// Package contract implements the smart-contract execution engine shared by
// BIDL and the baseline frameworks: contracts read and write world state
// through a TxContext that records an HLF-style read-write set, and the
// engine supports deliberately non-deterministic contracts (§3.1: BIDL must
// support non-determinism, e.g. caused by data races).
package contract

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
)

// ErrAbort is the sentinel contracts return (wrapped) to abort a
// transaction for application reasons.
var ErrAbort = errors.New("contract: aborted")

// StateView is any readable state: committed State, a speculative Overlay,
// or an endorsement snapshot.
type StateView interface {
	Get(key string) (val []byte, ver ledger.Version, ok bool)
}

// TxContext is the API a contract sees during one invocation. Reads record
// observed versions; writes stage into the read-write set with
// read-your-writes semantics inside the transaction. Each ExecScratch owns
// one, re-armed for every execution.
type TxContext struct {
	view   StateView
	rw     ledger.RWSet
	staged map[string][]byte
	dels   map[string]bool
	nondet *rand.Rand
	keys   []string // scratch for seal's sorted key pass
}

// GetState reads a key, recording the read version for MVCC validation.
func (c *TxContext) GetState(key string) ([]byte, bool) {
	if c.dels[key] {
		return nil, false
	}
	if v, ok := c.staged[key]; ok {
		return v, true
	}
	val, ver, ok := c.view.Get(key)
	c.rw.Reads = append(c.rw.Reads, ledger.Read{Key: key, Ver: ver, Existed: ok})
	return val, ok
}

// PutState stages a write.
func (c *TxContext) PutState(key string, val []byte) {
	delete(c.dels, key)
	c.staged[key] = val
}

// DelState stages a deletion.
func (c *TxContext) DelState(key string) {
	delete(c.staged, key)
	c.dels[key] = true
}

// Nondet exposes node-local randomness. Using it makes the transaction
// non-deterministic across nodes — exactly the §6.3 experiment's contract.
// It panics if the executing node supplied no source.
func (c *TxContext) Nondet() *rand.Rand {
	if c.nondet == nil {
		panic("contract: non-deterministic contract executed without a randomness source")
	}
	return c.nondet
}

// seal orders the staged writes into c.rw. Writes are emitted in sorted key
// order so result digests are canonical.
func (c *TxContext) seal(aborted bool) {
	c.rw.Aborted = aborted
	if !aborted {
		c.keys = c.keys[:0]
		for k := range c.staged {
			c.keys = append(c.keys, k)
		}
		for k := range c.dels {
			c.keys = append(c.keys, k)
		}
		sort.Strings(c.keys)
		for _, k := range c.keys {
			if c.dels[k] {
				c.rw.Writes = append(c.rw.Writes, ledger.Write{Key: k, Delete: true})
			} else {
				c.rw.Writes = append(c.rw.Writes, ledger.Write{Key: k, Val: c.staged[k]})
			}
		}
	}
}

// reset re-arms the context for another invocation, reusing its maps and
// slice backings. The RWSet sealed by the previous invocation is invalidated.
func (c *TxContext) reset(view StateView, nondet *rand.Rand) {
	c.view, c.nondet = view, nondet
	c.rw = ledger.RWSet{Reads: c.rw.Reads[:0], Writes: c.rw.Writes[:0]}
	if c.staged == nil {
		c.staged, c.dels = make(map[string][]byte), make(map[string]bool)
	}
	clear(c.staged)
	clear(c.dels)
}

// Contract is a deployed smart contract.
type Contract interface {
	// Name is the contract's registry key.
	Name() string
	// Invoke executes fn with args against the context. Returning an
	// error aborts the transaction (its writes are discarded).
	Invoke(ctx *TxContext, fn string, args [][]byte) error
}

// Registry holds deployed contracts and executes transactions against them.
type Registry struct {
	contracts map[string]Contract
}

// NewRegistry returns an empty contract registry.
func NewRegistry() *Registry {
	return &Registry{contracts: make(map[string]Contract)}
}

// Deploy installs a contract. Re-deploying a name replaces it.
func (r *Registry) Deploy(c Contract) { r.contracts[c.Name()] = c }

// Execute runs tx against view and returns its read-write set. Unknown
// contracts or functions, and contract errors, yield an aborted result with
// no writes — never a panic, since transactions are adversarial inputs. The
// result is ExecuteTransient's on a scratch of its own, so it outlives the
// call.
func (r *Registry) Execute(view StateView, tx *types.Transaction, nondet *rand.Rand) *ledger.RWSet {
	return r.ExecuteTransient(view, tx, nondet, new(ExecScratch))
}

// ExecScratch is a reusable execution context for ExecuteTransient. Each
// call reuses the embedded TxContext's maps and the RW-set's backing slices,
// so repeated executions settle at zero steady-state allocations.
type ExecScratch struct {
	ctx TxContext
}

// ExecuteTransient is the one execution routine, run on a caller-owned
// scratch context. The returned RWSet aliases the scratch and is valid ONLY
// until the next ExecuteTransient call with the same scratch: a node keeps a
// scratch per result it holds at once, and copies a result only where it
// leaves the node.
func (r *Registry) ExecuteTransient(view StateView, tx *types.Transaction, nondet *rand.Rand, sc *ExecScratch) *ledger.RWSet {
	c := r.contracts[tx.Contract]
	ctx := &sc.ctx
	ctx.reset(view, nondet)
	if c == nil {
		ctx.seal(true)
	} else {
		err := safeInvoke(c, ctx, tx.Fn, tx.Args)
		ctx.seal(err != nil)
	}
	return &ctx.rw
}

func safeInvoke(c Contract, ctx *TxContext, fn string, args [][]byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("contract %s panicked: %v", c.Name(), r)
		}
	}()
	return c.Invoke(ctx, fn, args)
}
