package core

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// TestSequencerMulticastFanoutAllocs pins (in the style of simnet's
// TestUntracedDeliveryAllocs) the allocation cost of the sequencer's batch
// multicast: size and inter-DC pipe accounting are computed once per
// emission, so the fan-out must cost roughly one allocation (the delivery
// closure) per receiver, not per-receiver recomputation of the batch.
func TestSequencerMulticastFanoutAllocs(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	seq := c.Sequencers[0]

	txns := gen.Batch(8)
	sts := make([]types.SequencedTx, len(txns))
	for i, tx := range txns {
		sts[i] = types.SequencedTx{Seq: uint64(i), Tx: tx}
	}
	batch := &SeqBatch{View: 0, Txns: sts}
	batch.Size() // one shared object: the size memoizes on first use

	receivers := 0
	for _, id := range c.Net.Group(groupTxns) {
		if id != seq.ep.ID() {
			receivers++
		}
	}
	if receivers == 0 {
		t.Fatal("no multicast receivers in txn group")
	}

	// Warm up once (scratch maps, event heap growth), then measure.
	simnet.NewInjectedContext(c.Net, seq.ep).Multicast(groupTxns, batch)
	allocs := testing.AllocsPerRun(100, func() {
		ctx := simnet.NewInjectedContext(c.Net, seq.ep)
		ctx.Multicast(groupTxns, batch)
	})
	// One delivery closure per receiver plus slack for amortized event-heap
	// growth (the scheduled deliveries are intentionally left undrained so
	// only the emission itself is measured).
	budget := float64(receivers) + 3
	if allocs > budget {
		t.Fatalf("sequencer multicast fan-out = %v allocs for %d receivers, want <= %v",
			allocs, receivers, budget)
	}
}

// TestExecutePathAllocs pins the delegate's execute path: the redundant
// non-determinism re-execution runs through the transient scratch context,
// so makeOrgResult must settle at a small constant allocation count —
// re-marshalling or context reallocation would blow well past the budget.
func TestExecutePathAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops a random share of Puts under -race, so Sign's HMAC states re-allocate")
	}
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	nn := c.Orgs[0][0]
	if !nn.isDelegate() {
		t.Fatal("first org node is not the delegate")
	}
	tx := gen.Batch(1)[0]

	var allocs float64
	nnWithCtx(c, nn, func() {
		rw := c.Registry.Execute(nn.overlay, tx, nn.nondet)
		nn.makeOrgResult(1, tx, rw) // warm the transient scratch
		allocs = testing.AllocsPerRun(100, func() {
			nn.makeOrgResult(1, tx, rw)
		})
	})
	// 3 measured: the re-execution's two balance values and the signature
	// (this org owns neither key, so its kept partition is empty). 18 while
	// the partition digests built slices of parts, owner names were
	// formatted per write, account keys were boxed for a sync.Map and putBal
	// converted twice (budget 30 then); the budget is measured + 10 %.
	const budget = 3
	if allocs > budget {
		t.Fatalf("delegate execute path = %v allocs/op, want <= %d (transient scratch not reused?)",
			allocs, budget)
	}
}

// TestSmallBankTransientAllocs pins a SmallBank payment on a warm scratch:
// the context's maps and the RW set's slices are reused and the account keys
// are looked up without boxing, so the two new balance values are all that
// is allocated.
func TestSmallBankTransientAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation pins hold for the plain build only")
	}
	r := contract.NewRegistry()
	r.Deploy(contract.SmallBank{})
	st := ledger.NewState()
	st.Put(contract.CheckingKey("acct-1"), []byte("1000"), ledger.Version{})
	st.Put(contract.CheckingKey("acct-2"), []byte("1000"), ledger.Version{})
	tx := &types.Transaction{Contract: "smallbank", Fn: "send_payment",
		Args: [][]byte{[]byte("acct-1"), []byte("acct-2"), []byte("5")}}
	var sc contract.ExecScratch
	r.ExecuteTransient(st, tx, nil, &sc)
	allocs := testing.AllocsPerRun(100, func() {
		if rw := r.ExecuteTransient(st, tx, nil, &sc); rw.Aborted || len(rw.Writes) != 2 {
			t.Fatalf("payment = %+v, want two writes", rw)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm-scratch send_payment = %v allocs/op, want <= 2 (the two balances)", allocs)
	}
}

// TestConsNodeWaitingAllocs pins a consensus node buffering result vectors
// before agreement: once the sequence numbers' slot page exists, the first
// vector to wait at each is held by pointer in its slot, so a 64-entry
// ResultMsg costs no allocation.
func TestConsNodeWaitingAllocs(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	cn := c.ConsNodes[1]
	msg := &ResultMsg{Entries: make([]ResultEntry, pageSize)}
	for i := range msg.Entries {
		msg.Entries[i] = ResultEntry{Seq: pageSize + uint64(i), TxID: gen.Next().ID()}
	}
	cn.pool.consAt(pageSize, true)
	allocs := testing.AllocsPerRun(100, func() {
		cn.onResults(msg)
		for i := range msg.Entries {
			cs := cn.pool.consAt(msg.Entries[i].Seq, false)
			if cs.waiting != &msg.Entries[i] {
				t.Fatalf("entry %d is not the vector waiting at %d", i, msg.Entries[i].Seq)
			}
			cs.waiting = nil
		}
	})
	if allocs > 0 {
		t.Fatalf("buffering a %d-entry ResultMsg = %v allocs/op, want 0", len(msg.Entries), allocs)
	}
}
