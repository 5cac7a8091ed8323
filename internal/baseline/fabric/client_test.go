package fabric

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
	"github.com/bidl-framework/bidl/internal/types"
)

// A transaction the client aborts itself — mismatching endorsements, or an
// endorsement error — never reaches ordering, so the client is the only one
// who can close it. Both stores must see it closed: the collector counts an
// abort, and the trace holds its one `notified` mark, so the anatomy report
// calls it complete instead of "incomplete (dropped)".
func TestClientAbortClosesCollectorAndTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(tx *types.Transaction)
		nondet uint64
	}{
		// create_random draws from each endorsing peer's own RNG: two
		// organizations return different digests.
		{"nondet-mismatch", func(*types.Transaction) {}, 1},
		// A signature the peers reject makes every endorsement an error.
		{"endorse-error", func(tx *types.Transaction) { tx.Sig[0] ^= 0xff }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(FastFabric)
			cfg.Tracer = trace.New(trace.Options{})
			c, gen := buildCluster(t, cfg, defaultWorkload())
			tx := &types.Transaction{
				Client: gen.Client(0), Nonce: 1, Contract: "smallbank", Fn: "create_random",
				Args: [][]byte{[]byte("nd-acct")},
				Orgs: []string{types.OrgName(0), types.OrgName(1)},
			}
			if err := tx.Sign(c.Scheme); err != nil {
				t.Fatal(err)
			}
			tc.tamper(tx)
			c.SubmitAt(0, tx)
			c.Run(time.Second)

			col := c.Collector
			if col.NumCommitted() != 1 || col.NumAborted() != 1 || col.NondetAborts != tc.nondet {
				t.Fatalf("collector committed=%d aborted=%d nondet=%d, want 1/1/%d",
					col.NumCommitted(), col.NumAborted(), col.NondetAborts, tc.nondet)
			}
			submit, notified := 0, 0
			for _, ev := range cfg.Tracer.TxEvents() {
				if ev.Tx != tx.ID() {
					t.Fatalf("trace event for another transaction: %+v", ev)
				}
				switch ev.Stage {
				case trace.StageSubmit:
					submit++
				case trace.StageNotified:
					notified++
				}
			}
			if submit != 1 || notified != 1 {
				t.Fatalf("trace holds %d submit and %d notified marks, want 1 and 1", submit, notified)
			}
			rep := anatomy.Compute(cfg.Tracer.TxEvents(), cfg.Tracer.PhaseEvents(), anatomy.Options{})
			if rep.Complete != 1 {
				t.Fatalf("anatomy reports %d complete transactions, want 1", rep.Complete)
			}
		})
	}
}

// A second reply from an organization replaces its first: it never counts as
// a second organization, and the envelope carries the later endorsement.
func TestSecondReplyFromOneOrgReplacesTheFirst(t *testing.T) {
	c, _ := buildCluster(t, smallConfig(FastFabric), defaultWorkload())
	var submitted []*Envelope
	c.Net.DropFilter = func(_, _ simnet.NodeID, msg simnet.Message) bool {
		if m, ok := msg.(*SubmitEnvelopes); ok {
			submitted = append(submitted, m.Envs...)
		}
		return true
	}
	id := crypto.Identity("lone-client")
	c.Scheme.Register(id)
	cl := &Client{c: c, id: id, pending: make(map[types.TxID]*pendingTx)}
	cl.ep = c.AddClient(id, cl)
	// Organization names out of order: the envelope lists them sorted.
	tx := &types.Transaction{Client: id, Nonce: 1, Contract: "smallbank", Fn: "x",
		Orgs: []string{types.OrgName(3), types.OrgName(1)}}
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	ctx := simnet.NewInjectedContext(c.Net, cl.ep)
	cl.Submit(ctx, []*types.Transaction{tx})

	reply := func(org int, digest byte) *EndorseResp {
		return &EndorseResp{TxID: tx.ID(), Endorsement: Endorsement{Org: types.OrgName(org), Digest: crypto.Digest{digest}}}
	}
	cl.onEndorse(ctx, reply(3, 7))
	cl.onEndorse(ctx, reply(3, 9))
	if len(submitted) != 0 || cl.Pending() != 1 {
		t.Fatalf("two replies from one organization: %d envelopes submitted, %d pending; want 0 and 1", len(submitted), cl.Pending())
	}
	cl.onEndorse(ctx, reply(1, 9))
	if len(submitted) != 1 {
		t.Fatalf("%d envelopes submitted once both organizations replied, want 1 (NondetAborts=%d)", len(submitted), c.Collector.NondetAborts)
	}
	es := submitted[0].Endorsements
	if len(es) != 2 || es[0].Org != types.OrgName(1) || es[1].Org != types.OrgName(3) || es[1].Digest != (crypto.Digest{9}) {
		t.Fatalf("envelope endorsements %+v, want org1 then org3's second reply", es)
	}
}
