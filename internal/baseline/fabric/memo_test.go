package fabric

import (
	"fmt"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// The computed-once rule (DESIGN.md §7.1) on the baselines' shared objects:
// what an Envelope and a FabricBlock memoise is read by every peer, and a
// message without the memo, or with another deployment's, ends the same way.

// countingScheme counts the real verifications a run performs.
type countingScheme struct {
	crypto.Scheme
	verifies int
}

func (s *countingScheme) Verify(id crypto.Identity, msg []byte, sig crypto.Signature) bool {
	s.verifies++
	return s.Scheme.Verify(id, msg, sig)
}

// quietCluster is a cluster whose peers' sends go nowhere: the tests below
// hand blocks to peers directly.
func quietCluster(t testing.TB, cfg Config) (*Cluster, []*Peer, func(int) []*types.Transaction) {
	w := defaultWorkload()
	w.NumOrgs = cfg.NumOrgs
	c, gen := buildCluster(t, cfg, w)
	c.Net.DropFilter = func(simnet.NodeID, simnet.NodeID, simnet.Message) bool { return true }
	var peers []*Peer
	for _, org := range c.Peers {
		peers = append(peers, org...)
	}
	return c, peers, gen.Batch
}

// endorsedEnvelope is what a client assembles for tx once every related
// organization endorsed the given result.
func endorsedEnvelope(t testing.TB, c *Cluster, tx *types.Transaction, reads []ledger.Read, writes []ledger.Write) *Envelope {
	env := &Envelope{Tx: tx, Reads: reads, Writes: writes}
	dig := (&ledger.RWSet{Writes: writes}).Digest()
	for _, org := range tx.Orgs {
		sig, err := c.Scheme.Sign(crypto.Identity(org), endorsementBytes(tx.ID(), org, dig))
		if err != nil {
			t.Fatal(err)
		}
		env.Endorsements = append(env.Endorsements, Endorsement{Org: org, Digest: dig, Sig: sig})
	}
	return env
}

// testBlock builds block number of one envelope per transaction, each
// writing a key of its own, with the memos the orderers fill: key ids at
// proposal, hash ordinals at dissemination.
func testBlock(t testing.TB, c *Cluster, number uint64, txns []*types.Transaction) *FabricBlock {
	blk := &FabricBlock{Number: number}
	keys := c.Orderers[0].keys
	for i, tx := range txns {
		env := endorsedEnvelope(t, c, tx, nil, []ledger.Write{{Key: fmt.Sprintf("k-%d-%d", number, i), Val: []byte("v")}})
		resolveKeys(keys, env)
		blk.Envs = append(blk.Envs, env)
	}
	blk.resolve(c.Hashes)
	return blk
}

func deliver(c *Cluster, p *Peer, blk *FabricBlock) {
	p.OnMessage(simnet.NewInjectedContext(c.Net, p.ep), c.Orderers[0].Ep.ID(), blk)
}

// TestBlockFanoutVerifiesOnce: one block handed to all 50 peers costs one
// real verification per endorsement in it, not one per endorsement and peer.
func TestBlockFanoutVerifiesOnce(t *testing.T) {
	c, peers, batch := quietCluster(t, DefaultConfig(FastFabric))
	counter := &countingScheme{Scheme: c.Scheme}
	c.Scheme = counter
	blk := testBlock(t, c, 0, batch(500))
	endorsements := 0
	for _, env := range blk.Envs {
		endorsements += len(env.Endorsements)
	}
	for _, p := range peers {
		deliver(c, p, blk)
		if p.CommitHeight() != 1 || p.State().Len() != peers[0].State().Len() {
			t.Fatalf("peer %s did not commit the block like peer 0", p.orgName)
		}
	}
	if len(peers) != 50 || counter.verifies != endorsements {
		t.Fatalf("%d peers ran %d real verifications for %d endorsements, want one each", len(peers), counter.verifies, endorsements)
	}
	if c.Collector.RejectedTxns != 0 || c.Collector.MVCCAborts != 0 {
		t.Fatalf("%d rejected, %d MVCC aborts in a block of valid envelopes", c.Collector.RejectedTxns, c.Collector.MVCCAborts)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// A tampered copy of an envelope peers already accepted — same transaction,
// same endorsements, one write changed — is another object with its own
// unknown verdict: every peer that meets it rejects it, and the original's
// verdict stands.
func TestTamperedEnvelopeCopyRejected(t *testing.T) {
	cfg := smallConfig(FastFabric)
	c, peers, batch := quietCluster(t, cfg)
	orig := testBlock(t, c, 0, batch(1))
	env := orig.Envs[0]
	forged := &Envelope{Tx: env.Tx, Reads: env.Reads, Endorsements: env.Endorsements,
		Writes: []ledger.Write{{Key: env.Writes[0].Key, Val: []byte("forged")}}}
	tampered := &FabricBlock{Number: 0, Envs: []*Envelope{forged}}

	for i, p := range peers {
		if i%2 == 0 {
			deliver(c, p, orig)
		} else {
			deliver(c, p, tampered)
		}
	}
	for i, p := range peers {
		val, _, ok := p.State().Get(env.Writes[0].Key)
		if accepted := i%2 == 0; ok != accepted || (ok && string(val) != "v") {
			t.Fatalf("peer %d: key reads (%q, %v), want accepted=%v", i, val, ok, accepted)
		}
	}
	if got, want := c.Collector.RejectedTxns, uint64(len(peers)/2); got != want {
		t.Fatalf("RejectedTxns = %d, want %d: every peer handed the copy rejects it", got, want)
	}
	if !env.endorsed(c.Scheme) || forged.endorsed(c.Scheme) {
		t.Fatal("the verdicts of the original and its tampered copy mixed")
	}
}

// Key ids resolved in the deployment's table, in another deployment's, and
// none at all give the same states, aborts and chains as keys by name.
func TestEnvelopeKeyIDsOrNoneSameOutcome(t *testing.T) {
	c, peers, batch := quietCluster(t, smallConfig(FastFabric))
	foreign := ledger.NewResolver(dense.NewTable[string]()) // another deployment's table
	build := func(number uint64, txns []*types.Transaction, resolver *ledger.Resolver) *FabricBlock {
		blk := &FabricBlock{Number: number}
		for i, tx := range txns {
			// Every envelope read key "shared" when nobody had written it, and
			// the first writes it: the rest are stale. The third deletes what
			// the second wrote.
			reads := []ledger.Read{{Key: "shared"}, {Key: fmt.Sprintf("own-%d", i)}}
			writes := []ledger.Write{{Key: fmt.Sprintf("own-%d", i), Val: []byte{byte(i)}}}
			switch i {
			case 0:
				writes = append(writes, ledger.Write{Key: "shared", Val: []byte("first")})
			case 1, 2:
				reads = reads[1:]
				writes = append(writes, ledger.Write{Key: "gone", Val: []byte("x"), Delete: i == 2})
			}
			env := endorsedEnvelope(t, c, tx, reads, writes)
			if resolver != nil {
				resolveKeys(resolver, env)
			}
			blk.Envs = append(blk.Envs, env)
		}
		return blk
	}
	txns := batch(8)
	for i, resolver := range []*ledger.Resolver{c.Orderers[0].keys, foreign, nil} {
		deliver(c, peers[i], build(0, txns, resolver))
	}
	if got := c.Collector.MVCCAborts; got != 3*5 {
		t.Fatalf("MVCCAborts = %d, want 5 stale envelopes on each of 3 peers", got)
	}
	for i, p := range peers[1:3] {
		if !peers[0].State().Equal(p.State()) || !peers[0].Blocks().Equal(p.Blocks()) {
			t.Fatalf("peer %d (ids %s) and peer 0 (ids by the deployment's table) differ", i+1, []string{"of a foreign table", "absent"}[i])
		}
	}
	st := peers[0].State()
	if v, _, ok := st.Get("shared"); !ok || string(v) != "first" {
		t.Fatalf("shared reads (%q, %v), want the first envelope's write", v, ok)
	}
	if _, _, ok := st.Get("gone"); ok || st.Len() != peers[3].State().Len()+4 {
		t.Fatalf("state holds %d keys over the base's %d, want own-0, own-1, own-2 and shared", st.Len(), peers[3].State().Len())
	}
}

// A peer on another chain tip does not append the block object the others
// share: it builds its own on its own tip, and the chain comparison still
// tells the chains apart.
func TestPeerOnOtherTipBuildsOwnBlock(t *testing.T) {
	c, peers, batch := quietCluster(t, smallConfig(FastFabric))
	txns := batch(6)
	first, other, second := testBlock(t, c, 0, txns[:2]), testBlock(t, c, 0, txns[2:4]), testBlock(t, c, 1, txns[4:])
	for i, p := range peers[:3] {
		if i < 2 {
			deliver(c, p, first)
		} else {
			deliver(c, p, other)
		}
		deliver(c, p, second)
	}
	a, b, fork := peers[0].Blocks(), peers[1].Blocks(), peers[2].Blocks()
	if a.Get(1) != b.Get(1) || !a.Equal(b) {
		t.Fatal("two peers on one tip did not append one shared block object")
	}
	if fork.Get(1) == a.Get(1) || fork.Get(1).Prev != fork.Get(0).HeaderDigest() || fork.Get(1).HeaderDigest() != fork.LastDigest() {
		t.Fatal("the peer on another tip did not build block 1 on its own tip")
	}
	if a.Equal(fork) || a.CommonPrefixEqual(fork) || c.CheckSafety() == nil {
		t.Fatal("diverging chains compare equal")
	}
}

// A block nobody resolved (a test's, or one re-sent by an orderer that did
// not disseminate it) ends like the resolved one.
func TestBlockOrdinalsOrNoneSameOutcome(t *testing.T) {
	c, peers, batch := quietCluster(t, smallConfig(FastFabric))
	txns := batch(5)
	resolved := testBlock(t, c, 0, append(txns, txns[0])) // one transaction twice
	bare := &FabricBlock{Number: 0, Envs: resolved.Envs}
	deliver(c, peers[0], resolved)
	deliver(c, peers[1], bare)
	if !peers[0].State().Equal(peers[1].State()) || !peers[0].Blocks().Equal(peers[1].Blocks()) {
		t.Fatal("a block without ordinals ended differently")
	}
	if got := peers[1].State().Len() - peers[2].State().Len(); got != len(txns) {
		t.Fatalf("%d keys written, want %d: the repeated transaction applies once", got, len(txns))
	}
	// Both peers now know every hash: a later block repeating them is skipped.
	again := &FabricBlock{Number: 1, Envs: resolved.Envs[:2]}
	deliver(c, peers[0], again)
	deliver(c, peers[1], again)
	if peers[0].CommitHeight() != 2 || !peers[0].State().Equal(peers[1].State()) {
		t.Fatal("repeated transactions were not skipped alike")
	}
}
