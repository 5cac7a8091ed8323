package contract

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
)

func newRegistry() *Registry {
	r := NewRegistry()
	r.Deploy(SmallBank{})
	return r
}

func tx(fn string, args ...string) *types.Transaction {
	var bs [][]byte
	for _, a := range args {
		bs = append(bs, []byte(a))
	}
	return &types.Transaction{Client: "c", Contract: "smallbank", Fn: fn, Args: bs, Orgs: []string{"org1"}}
}

// exec runs a tx against state and applies successful writes.
func exec(t *testing.T, r *Registry, s *ledger.State, txn *types.Transaction, ver ledger.Version) *ledger.RWSet {
	t.Helper()
	rw := r.Execute(s, txn, nil)
	if !rw.Aborted {
		s.Apply(rw.Writes, ver)
	}
	return rw
}

func balance(t *testing.T, s *ledger.State, key string) int64 {
	t.Helper()
	raw, _, ok := s.Get(key)
	if !ok {
		t.Fatalf("key %s missing", key)
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCreateAndQuery(t *testing.T) {
	r, s := newRegistry(), ledger.NewState()
	rw := exec(t, r, s, tx("create_account", "a1", "100"), ledger.Version{Block: 1})
	if rw.Aborted {
		t.Fatal("create_account aborted")
	}
	if got := balance(t, s, CheckingKey("a1")); got != 100 {
		t.Fatalf("checking = %d, want 100", got)
	}
	if got := balance(t, s, SavingsKey("a1")); got != 100 {
		t.Fatalf("savings = %d, want 100", got)
	}
	if rw2 := exec(t, r, s, tx("query", "a1"), ledger.Version{Block: 2}); rw2.Aborted {
		t.Fatal("query aborted")
	}
	if rw3 := r.Execute(s, tx("create_account", "a1", "50"), nil); !rw3.Aborted {
		t.Fatal("duplicate create_account succeeded")
	}
}

func TestSendPayment(t *testing.T) {
	r, s := newRegistry(), ledger.NewState()
	exec(t, r, s, tx("create_account", "a1", "100"), ledger.Version{Block: 1, Tx: 0})
	exec(t, r, s, tx("create_account", "a2", "100"), ledger.Version{Block: 1, Tx: 1})
	rw := exec(t, r, s, tx("send_payment", "a1", "a2", "30"), ledger.Version{Block: 2})
	if rw.Aborted {
		t.Fatal("send_payment aborted")
	}
	if balance(t, s, CheckingKey("a1")) != 70 || balance(t, s, CheckingKey("a2")) != 130 {
		t.Fatal("transfer balances wrong")
	}
	// Insufficient funds aborts without partial writes.
	rw = r.Execute(s, tx("send_payment", "a1", "a2", "1000"), nil)
	if !rw.Aborted || len(rw.Writes) != 0 {
		t.Fatal("overdraft transfer did not cleanly abort")
	}
	// Unknown destination aborts.
	if rw := r.Execute(s, tx("send_payment", "a1", "ghost", "1"), nil); !rw.Aborted {
		t.Fatal("payment to unknown account succeeded")
	}
}

func TestSavingsAndChecks(t *testing.T) {
	r, s := newRegistry(), ledger.NewState()
	exec(t, r, s, tx("create_account", "a1", "100"), ledger.Version{Block: 1})
	if rw := exec(t, r, s, tx("transact_savings", "a1", "-40"), ledger.Version{Block: 2}); rw.Aborted {
		t.Fatal("savings withdrawal aborted")
	}
	if balance(t, s, SavingsKey("a1")) != 60 {
		t.Fatal("savings wrong after withdrawal")
	}
	if rw := r.Execute(s, tx("transact_savings", "a1", "-100"), nil); !rw.Aborted {
		t.Fatal("savings overdraft succeeded")
	}
	if rw := exec(t, r, s, tx("deposit_checking", "a1", "25"), ledger.Version{Block: 3}); rw.Aborted {
		t.Fatal("deposit aborted")
	}
	if balance(t, s, CheckingKey("a1")) != 125 {
		t.Fatal("checking wrong after deposit")
	}
	// write_check within funds.
	exec(t, r, s, tx("write_check", "a1", "50"), ledger.Version{Block: 4})
	if balance(t, s, CheckingKey("a1")) != 75 {
		t.Fatal("write_check wrong")
	}
	// write_check beyond chk+sav incurs the penalty.
	exec(t, r, s, tx("write_check", "a1", "500"), ledger.Version{Block: 5})
	if balance(t, s, CheckingKey("a1")) != 75-500-1 {
		t.Fatalf("overdraft penalty wrong: %d", balance(t, s, CheckingKey("a1")))
	}
}

func TestAmalgamate(t *testing.T) {
	r, s := newRegistry(), ledger.NewState()
	exec(t, r, s, tx("create_account", "a1", "100"), ledger.Version{Block: 1, Tx: 0})
	exec(t, r, s, tx("create_account", "a2", "10"), ledger.Version{Block: 1, Tx: 1})
	if rw := exec(t, r, s, tx("amalgamate", "a1", "a2"), ledger.Version{Block: 2}); rw.Aborted {
		t.Fatal("amalgamate aborted")
	}
	if balance(t, s, CheckingKey("a1")) != 0 || balance(t, s, SavingsKey("a1")) != 0 {
		t.Fatal("source not drained")
	}
	if balance(t, s, CheckingKey("a2")) != 210 {
		t.Fatalf("dst checking = %d, want 210", balance(t, s, CheckingKey("a2")))
	}
}

func TestNondeterministicCreate(t *testing.T) {
	r := newRegistry()
	s1, s2 := ledger.NewState(), ledger.NewState()
	txn := tx("create_random", "a1")
	rw1 := r.Execute(s1, txn, rand.New(rand.NewSource(1)))
	rw2 := r.Execute(s2, txn, rand.New(rand.NewSource(2)))
	if rw1.Aborted || rw2.Aborted {
		t.Fatal("create_random aborted")
	}
	if rw1.Digest() == rw2.Digest() {
		t.Fatal("different nondet sources produced identical results")
	}
	// Same source ⇒ same result (the divergence is the randomness).
	rw3 := r.Execute(ledger.NewState(), txn, rand.New(rand.NewSource(1)))
	if rw1.Digest() != rw3.Digest() {
		t.Fatal("same nondet source produced different results")
	}
}

func TestNondetWithoutSourceAbortsNotPanics(t *testing.T) {
	r := newRegistry()
	rw := r.Execute(ledger.NewState(), tx("create_random", "a1"), nil)
	if !rw.Aborted {
		t.Fatal("nondet contract without source should abort (recovered panic)")
	}
}

func TestUnknownContractAndFunction(t *testing.T) {
	r := newRegistry()
	s := ledger.NewState()
	bad := &types.Transaction{Contract: "nope", Fn: "f"}
	if rw := r.Execute(s, bad, nil); !rw.Aborted {
		t.Fatal("unknown contract executed")
	}
	if rw := r.Execute(s, tx("frobnicate"), nil); !rw.Aborted {
		t.Fatal("unknown function executed")
	}
	if rw := r.Execute(s, tx("send_payment", "only-one-arg"), nil); !rw.Aborted {
		t.Fatal("wrong arity executed")
	}
	if rw := r.Execute(s, tx("deposit_checking", "a", "not-a-number"), nil); !rw.Aborted {
		t.Fatal("garbage amount executed")
	}
}

// newTxContext arms a fresh context the way ExecuteTransient does.
func newTxContext(view StateView) *TxContext {
	ctx := new(TxContext)
	ctx.reset(view, nil)
	return ctx
}

// sealed seals ctx as a successful invocation and returns its result.
func sealed(ctx *TxContext) *ledger.RWSet {
	ctx.seal(false)
	return &ctx.rw
}

func TestReadYourWrites(t *testing.T) {
	s := ledger.NewState()
	ctx := newTxContext(s)
	ctx.PutState("k", []byte("v1"))
	if v, ok := ctx.GetState("k"); !ok || string(v) != "v1" {
		t.Fatal("staged write not visible in same txn")
	}
	ctx.DelState("k")
	if _, ok := ctx.GetState("k"); ok {
		t.Fatal("staged delete not visible")
	}
	rw := sealed(ctx)
	if len(rw.Writes) != 1 || !rw.Writes[0].Delete {
		t.Fatalf("writes = %+v, want single delete", rw.Writes)
	}
}

func TestWritesCanonicalOrder(t *testing.T) {
	mk := func(order []string) *ledger.RWSet {
		ctx := newTxContext(ledger.NewState())
		for _, k := range order {
			ctx.PutState(k, []byte("v"))
		}
		return sealed(ctx)
	}
	a := mk([]string{"b", "a", "c"})
	b := mk([]string{"c", "b", "a"})
	if a.Digest() != b.Digest() {
		t.Fatal("write order affects result digest; digests must be canonical")
	}
}

func TestRWSetRecordsReads(t *testing.T) {
	s := ledger.NewState()
	s.Put("k", []byte("v"), ledger.Version{Block: 3, Tx: 1})
	ctx := newTxContext(s)
	ctx.GetState("k")
	ctx.GetState("missing")
	rw := sealed(ctx)
	if len(rw.Reads) != 2 {
		t.Fatalf("reads = %d, want 2", len(rw.Reads))
	}
	if rw.Reads[0].Ver != (ledger.Version{Block: 3, Tx: 1}) || !rw.Reads[0].Existed {
		t.Fatal("read version not recorded")
	}
	if rw.Reads[1].Existed {
		t.Fatal("absent read marked existing")
	}
}

func TestPropertyMoneyConserved(t *testing.T) {
	// Sequentially executed transfers never create or destroy money:
	// sum(checking) is invariant under send_payment.
	f := func(transfers []uint16) bool {
		r := newRegistry()
		s := ledger.NewState()
		const nAcct = 5
		for i := 0; i < nAcct; i++ {
			rw := r.Execute(s, tx("create_account", fmt.Sprintf("a%d", i), "1000"), nil)
			s.Apply(rw.Writes, ledger.Version{Block: 0, Tx: i})
		}
		sum := func() int64 {
			var total int64
			for i := 0; i < nAcct; i++ {
				raw, _, _ := s.Get(CheckingKey(fmt.Sprintf("a%d", i)))
				v, _ := strconv.ParseInt(string(raw), 10, 64)
				total += v
			}
			return total
		}
		before := sum()
		for i, tr := range transfers {
			src := fmt.Sprintf("a%d", int(tr)%nAcct)
			dst := fmt.Sprintf("a%d", int(tr/7)%nAcct)
			amt := strconv.Itoa(int(tr % 300))
			rw := r.Execute(s, tx("send_payment", src, dst, amt), nil)
			if !rw.Aborted {
				s.Apply(rw.Writes, ledger.Version{Block: 1, Tx: i})
			}
		}
		return sum() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeterministicExecution(t *testing.T) {
	// The same transaction against equal states yields equal results.
	f := func(amtRaw uint16) bool {
		amt := strconv.Itoa(int(amtRaw % 500))
		run := func() *ledger.RWSet {
			r := newRegistry()
			s := ledger.NewState()
			rw := r.Execute(s, tx("create_account", "a1", "1000"), nil)
			s.Apply(rw.Writes, ledger.Version{})
			rw = r.Execute(s, tx("create_account", "a2", "1000"), nil)
			s.Apply(rw.Writes, ledger.Version{})
			return r.Execute(s, tx("send_payment", "a1", "a2", amt), nil)
		}
		return run().Digest() == run().Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
