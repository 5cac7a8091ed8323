package substrate

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/simhost"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

func member(i int) crypto.Identity { return crypto.Identity(fmt.Sprintf("cn%d", i)) }

func newDeployment(numDCs int) *Deployment {
	cfg := DefaultConfig()
	cfg.NumDCs = numDCs
	return NewDeployment(NewEngine("test", cfg), "x/", cfg, member)
}

// fakeClient records the batches the registry hands it, into a log shared by
// all clients so the order across clients is visible.
type fakeClient struct {
	id      crypto.Identity
	log     *[]string
	pending int
}

func (c *fakeClient) OnMessage(*simnet.Context, simnet.NodeID, simnet.Message) {}
func (c *fakeClient) Pending() int                                             { return c.pending }
func (c *fakeClient) Submit(ctx *simnet.Context, txns []*types.Transaction) {
	entry := fmt.Sprintf("%s@%v:", c.id, ctx.Now())
	for _, tx := range txns {
		entry += fmt.Sprintf(" %d", tx.Nonce)
	}
	*c.log = append(*c.log, entry)
	c.pending += len(txns)
}

func TestSubmitAtGroupsByClientInFirstSeenOrder(t *testing.T) {
	d := newDeployment(1)
	var log []string
	for _, id := range []crypto.Identity{"alice", "bob"} {
		if d.HasClient(id) {
			t.Fatalf("%s registered before AddClient", id)
		}
		d.AddClient(id, &fakeClient{id: id, log: &log})
	}
	tx := func(client crypto.Identity, nonce uint64) *types.Transaction {
		return &types.Transaction{Client: client, Nonce: nonce, Contract: "c", Fn: "f"}
	}
	txns := []*types.Transaction{tx("bob", 1), tx("ghost", 2), tx("alice", 3), tx("bob", 4)}
	wantID := tx("bob", 1).ID()
	d.SubmitAt(5*time.Millisecond, txns...)
	// Warmed at scheduling time, before the transaction is shared: the cached
	// ID no longer follows the fields.
	txns[0].Nonce = 99
	if txns[0].ID() != wantID {
		t.Fatal("SubmitAt did not warm the transaction's lazy caches")
	}
	if len(log) != 0 {
		t.Fatalf("submitted before the scheduled time: %v", log)
	}
	d.Run(10 * time.Millisecond)
	want := []string{"bob@5ms: 99 4", "alice@5ms: 3"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("submissions = %q, want %q (ghost has no endpoint and is skipped)", log, want)
	}
	if d.InFlight() != 3 {
		t.Fatalf("InFlight = %d, want 3", d.InFlight())
	}
	if _, ok := d.ClientEndpoint("ghost"); ok {
		t.Fatal("ClientEndpoint found an unregistered client")
	}
	if id, ok := d.ClientEndpoint("bob"); !ok || d.Net.Endpoint(id).Name() != "x/client-bob" {
		t.Fatalf("ClientEndpoint(bob) = %v, %v", id, ok)
	}
}

func TestViolationsKeepArrivalOrder(t *testing.T) {
	d := newDeployment(1)
	for _, v := range []string{"b", "c", "a"} {
		d.Violation(v)
	}
	if got := fmt.Sprint(d.Violations()); got != "[b c a]" {
		t.Errorf("report = %s, want arrival order [b c a]", got)
	}
}

// TestPlacement checks the placement rule in isolation (the end-to-end
// tables are pinned by scenario's TestEndpointLayoutPinned): datacenters are
// dealt round-robin over consensus and organization nodes in registration
// order, and clients sit in datacenter 0.
func TestPlacement(t *testing.T) {
	d := newDeployment(2)
	h := simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) {})
	var hosts [3]simhost.Host
	for i := range hosts {
		d.AddConsensus(&hosts[i], fmt.Sprintf("cn%d", i), h)
	}
	for o := 0; o < 2; o++ {
		for j := 0; j < 2; j++ {
			d.AddOrgNode(o, fmt.Sprintf("o%d-n%d", o, j), h)
		}
	}
	d.AddClient("c", &fakeClient{})
	var got string
	for id := simnet.NodeID(0); d.Net.Endpoint(id) != nil; id++ {
		ep := d.Net.Endpoint(id)
		got += fmt.Sprintf("%s/dc%d ", ep.Name(), ep.DC())
	}
	want := "x/cn0/dc0 x/cn1/dc1 x/cn2/dc0 " +
		"x/o0-n0/dc1 x/o0-n1/dc0 x/o1-n0/dc1 x/o1-n1/dc0 x/client-c/dc0 "
	if got != want {
		t.Fatalf("layout\n got %s\nwant %s", got, want)
	}
	if len(d.Cons.Members) != 3 || len(d.OrgEps) != 2 || len(d.OrgEps[1]) != 2 {
		t.Fatalf("rosters: %d consensus, %d orgs", len(d.Cons.Members), len(d.OrgEps))
	}
	if i, ok := d.Cons.Index(hosts[2].Ep.ID()); !ok || i != 2 || d.OrgEps[1][0].Name() != "x/o1-n0" {
		t.Fatal("rosters do not index the registered endpoints")
	}
	if _, ok := d.Cons.Index(d.OrgEps[0][0].ID()); ok {
		t.Fatal("an organization node is a consensus member")
	}
}

// Submitted/Notified write a transaction's two ends into both stores, and
// into the collector alone when tracing is off.
func TestSubmittedNotifiedWriteBothStores(t *testing.T) {
	id := crypto.Hash([]byte("tx"))
	for _, tr := range []*trace.Tracer{nil, trace.New(trace.Options{})} {
		cfg := DefaultConfig()
		cfg.Tracer = tr
		e := NewEngine("test", cfg)
		e.Submitted(id, 7, time.Millisecond)
		e.Notified(id, 7, 5*time.Millisecond, true)
		col := e.Metrics()
		if col.NumCommitted() != 1 || col.NumAborted() != 1 || col.AvgLatency(0, time.Second) != 4*time.Millisecond {
			t.Fatalf("collector: committed=%d aborted=%d latency=%v",
				col.NumCommitted(), col.NumAborted(), col.AvgLatency(0, time.Second))
		}
		want := []trace.TxEvent{
			{Tx: id, Stage: trace.StageSubmit, Node: 7, At: time.Millisecond},
			{Tx: id, Stage: trace.StageNotified, Node: 7, At: 5 * time.Millisecond},
		}
		if tr == nil {
			want = nil
		}
		if got := tr.TxEvents(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace events = %+v, want %+v", got, want)
		}
	}
}
