package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// The validate phase of a peer against a plain-map reference. Three peers —
// two on the deployment's key table, one on a table of its own — are handed
// the same seeded random blocks: valid envelopes, pre-aborted ones, a
// transaction a later block repeats, stale reads, deletes and every way VSCC
// rejects an envelope. After every block each peer's virtual CPU charge,
// world state incl. versions, commit notices, chain tip and the cluster's
// RejectedTxns/MVCCAborts are compared with what one map per fact says. The
// reference knows an envelope's VSCC outcome from how it was built, not from
// re-running the rules.

// modelKind is how the generator builds an envelope.
type modelKind int

const (
	kindValid modelKind = iota
	kindPreAborted
	kindRepeat
	kindStaleRead
	kindMissingOrg
	kindDuplicateOrg
	kindUnrelatedOrg
	kindDigestMismatch
	kindBadSignature
	kindForeignSignature
	kindExtraEndorsement
	kindNoEndorsement
	numModelKinds
)

func (k modelKind) rejectedByVSCC() bool { return k >= kindMissingOrg }

// modelRef is what every peer must hold, one plain map per fact.
type modelRef struct {
	vals    map[string][]byte
	vers    map[string]ledger.Version
	done    map[types.TxID]bool // transactions some block already carried
	aborted map[types.TxID]bool // outcome of every processed transaction
	// vscc is what VSCC must say about each envelope, by construction. Only
	// a transaction's first envelope is ever validated.
	vscc map[*Envelope]bool

	rejected, mvcc uint64 // per peer
	tip            crypto.Digest
	height         uint64
}

// modelRun is one cluster of three peers and the reference beside it.
type modelRun struct {
	t       *testing.T
	rng     *rand.Rand
	c       *Cluster
	peers   []*Peer
	clients []crypto.Identity
	keys    []string
	ref     *modelRef
	nonce   uint64
	past    []*Envelope // first envelopes of earlier blocks, for repeats
	// notes collects, per peer, the commit notices of the block in flight.
	notes map[simnet.NodeID][]CommitEntry
	// copies hands every peer its own copy of each block and envelope.
	copies bool
}

const (
	modelBaseKeys  = 8
	modelFreshKeys = 12
)

func newModelRun(t *testing.T, v Variant, seed int64, copies bool) *modelRun {
	cfg := DefaultConfig(v)
	cfg.NumOrgs, cfg.PerOrg, cfg.Seed = 3, 1, seed
	c := NewCluster(cfg)
	r := &modelRun{
		t: t, rng: rand.New(rand.NewSource(seed)), c: c, copies: copies,
		notes: make(map[simnet.NodeID][]CommitEntry),
		ref: &modelRef{
			vals: make(map[string][]byte), vers: make(map[string]ledger.Version),
			done: make(map[types.TxID]bool), aborted: make(map[types.TxID]bool),
			vscc: make(map[*Envelope]bool),
		},
	}
	for i := 0; i < 4; i++ {
		id := crypto.Identity(fmt.Sprintf("model-client-%d", i))
		c.Scheme.Register(id)
		r.clients = append(r.clients, id)
	}
	c.RegisterClients(r.clients)

	baseVals := make(map[string][]byte)
	var baseKeys []string
	for i := 0; i < modelBaseKeys; i++ {
		k := fmt.Sprintf("base-%d", i)
		baseKeys = append(baseKeys, k)
		baseVals[k] = []byte(fmt.Sprintf("genesis-%d", i))
		r.ref.vals[k] = baseVals[k]
		r.ref.vers[k] = ledger.Version{}
	}
	base := ledger.NewFuncBase(len(baseKeys),
		func(i int) string { return baseKeys[i] },
		func(k string) ([]byte, bool) { v, ok := baseVals[k]; return v, ok })
	r.keys = append(r.keys, baseKeys...)
	for i := 0; i < modelFreshKeys; i++ {
		r.keys = append(r.keys, fmt.Sprintf("fresh-%d", i))
	}

	for _, org := range c.Peers {
		r.peers = append(r.peers, org[0])
	}
	// The third peer names its keys in a table nobody shares.
	r.peers[2].state = ledger.NewState()
	for _, p := range r.peers {
		p.State().SetBase(base)
	}
	c.Net.DropFilter = func(from, to simnet.NodeID, msg simnet.Message) bool {
		if note, ok := msg.(*CommitNote); ok {
			r.notes[from] = append(r.notes[from], note.Entries...)
		}
		return true
	}
	return r
}

// endorse signs the envelope's result digest as org.
func (r *modelRun) endorse(signer, org string, tx *types.Transaction, dig crypto.Digest) Endorsement {
	id := tx.ID()
	msg := append(append(append([]byte(nil), id[:]...), org...), dig[:]...)
	sig, err := r.c.Scheme.Sign(crypto.Identity(signer), msg)
	if err != nil {
		r.t.Fatal(err)
	}
	return Endorsement{Org: org, Digest: dig, Sig: sig}
}

// envelope builds one envelope of the given kind against the reference's
// state as it is before the block applies, so envelopes of one block that
// touch a key conflict the way parallel endorsement makes them.
func (r *modelRun) envelope(kind modelKind) *Envelope {
	rng := r.rng
	if kind == kindRepeat {
		if len(r.past) == 0 {
			kind = kindValid
		} else {
			old := r.past[rng.Intn(len(r.past))]
			if rng.Intn(2) == 0 {
				return old // the very same object again
			}
			// A different, impeccable envelope for the same transaction:
			// still a repeat, and the first outcome stands.
			env := r.assemble(old.Tx, kindValid)
			r.ref.vscc[env] = true
			return env
		}
	}
	orgs := []string{types.OrgName(rng.Intn(3))}
	if rng.Intn(2) == 0 || kind == kindDuplicateOrg || kind == kindMissingOrg {
		orgs = append(orgs, types.OrgName((types.OrgIndex(orgs[0])+1+rng.Intn(2))%3))
	}
	r.nonce++
	tx := &types.Transaction{
		Client: r.clients[rng.Intn(len(r.clients))], Nonce: r.nonce,
		Contract: "smallbank", Fn: "model", Args: [][]byte{[]byte(fmt.Sprint(kind))}, Orgs: orgs,
	}
	if err := tx.Sign(r.c.Scheme); err != nil {
		r.t.Fatal(err)
	}
	tx.Warm()
	env := r.assemble(tx, kind)
	r.ref.vscc[env] = !kind.rejectedByVSCC()
	return env
}

// assemble fills tx's read-write set and endorsements as kind demands.
func (r *modelRun) assemble(tx *types.Transaction, kind modelKind) *Envelope {
	rng := r.rng
	env := &Envelope{Tx: tx, Aborted: kind == kindPreAborted}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		k := r.keys[rng.Intn(len(r.keys))]
		_, existed := r.ref.vals[k]
		env.Reads = append(env.Reads, ledger.Read{Key: k, Ver: r.ref.vers[k], Existed: existed})
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		w := ledger.Write{Key: r.keys[rng.Intn(len(r.keys))]}
		if rng.Intn(5) == 0 {
			w.Delete = true // of a live key, a deleted one or one never written
		} else {
			w.Val = []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
		}
		env.Writes = append(env.Writes, w)
	}
	if kind == kindStaleRead {
		rd := &env.Reads[rng.Intn(len(env.Reads))]
		if rd.Existed && rng.Intn(2) == 0 {
			rd.Ver.Block += 1 << 40
		} else {
			rd.Existed = !rd.Existed
		}
	}
	dig := (&ledger.RWSet{Reads: env.Reads, Writes: env.Writes, Aborted: env.Aborted}).Digest()
	for _, org := range tx.Orgs {
		env.Endorsements = append(env.Endorsements, r.endorse(org, org, tx, dig))
	}
	outsider := ""
	for o := 0; o < 3; o++ {
		if !tx.RelatedTo(types.OrgName(o)) {
			outsider = types.OrgName(o)
		}
	}
	last := len(env.Endorsements) - 1
	switch kind {
	case kindMissingOrg:
		env.Endorsements = env.Endorsements[:last]
	case kindDuplicateOrg:
		env.Endorsements[last] = env.Endorsements[0]
	case kindUnrelatedOrg:
		env.Endorsements[last] = r.endorse(outsider, outsider, tx, dig)
	case kindDigestMismatch:
		if rng.Intn(2) == 0 {
			// The result changed after it was endorsed.
			env.Writes[0].Val = append([]byte("tampered-"), env.Writes[0].Val...)
			env.Writes[0].Delete = false
		} else {
			// One organization endorsed another result, signature intact.
			other := dig
			other[0] ^= 0xff
			env.Endorsements[last] = r.endorse(tx.Orgs[last], tx.Orgs[last], tx, other)
		}
	case kindBadSignature:
		sig := append(crypto.Signature(nil), env.Endorsements[last].Sig...)
		sig[rng.Intn(len(sig))] ^= 0x01
		env.Endorsements[last].Sig = sig
	case kindForeignSignature:
		env.Endorsements[last] = r.endorse(outsider, tx.Orgs[last], tx, dig)
	case kindExtraEndorsement:
		env.Endorsements = append(env.Endorsements, r.endorse(outsider, outsider, tx, dig))
	case kindNoEndorsement:
		env.Endorsements = nil
	}
	return env
}

// apply runs the reference over blk and returns the virtual CPU a peer must
// charge for it and the outcomes it must notify, by corresponding org.
func (r *modelRun) apply(blk *FabricBlock) (charge time.Duration, notices map[string]map[types.TxID]bool) {
	ref, costs := r.ref, r.c.Cfg.Costs
	charge = costs.BlockOverhead
	notices = make(map[string]map[types.TxID]bool)
	b := &types.Block{Number: blk.Number, Prev: ref.tip}
	for i, env := range blk.Envs {
		id := env.Tx.ID()
		b.Hashes, b.Seqs = append(b.Hashes, id), append(b.Seqs, 0)
		if ref.done[id] {
			continue
		}
		ref.done[id] = true
		r.past = append(r.past, env)
		charge += r.c.Cfg.validatePerTxn()
		aborted := env.Aborted
		if !aborted && !ref.vscc[env] {
			aborted = true
			ref.rejected++
		}
		if !aborted {
			for _, rd := range env.Reads {
				_, ok := ref.vals[rd.Key]
				if ok != rd.Existed || (ok && ref.vers[rd.Key] != rd.Ver) {
					aborted = true
				}
			}
			if aborted {
				ref.mvcc++
			}
		}
		if !aborted {
			charge += costs.CommitTxn
			for _, w := range env.Writes {
				if w.Delete {
					delete(ref.vals, w.Key)
					delete(ref.vers, w.Key)
				} else {
					ref.vals[w.Key] = w.Val
					ref.vers[w.Key] = ledger.Version{Block: blk.Number, Tx: i}
				}
			}
		}
		ref.aborted[id] = aborted
		org := env.Tx.CorrespondingOrg()
		if notices[org] == nil {
			notices[org] = make(map[types.TxID]bool)
		}
		notices[org][id] = aborted
	}
	ref.tip = b.HeaderDigest()
	ref.height++
	return charge, notices
}

// copyBlock returns a block no peer shares: fresh envelopes over fresh
// slices, nothing of what a peer may have attached to the original.
func copyBlock(blk *FabricBlock) *FabricBlock {
	cp := &FabricBlock{Number: blk.Number, Cert: blk.Cert}
	for _, env := range blk.Envs {
		cp.Envs = append(cp.Envs, &Envelope{
			Tx:           env.Tx,
			Reads:        append([]ledger.Read(nil), env.Reads...),
			Writes:       append([]ledger.Write(nil), env.Writes...),
			Aborted:      env.Aborted,
			Endorsements: append([]Endorsement(nil), env.Endorsements...),
		})
	}
	return cp
}

// step builds one random block, delivers it to every peer and compares each
// with the reference.
func (r *modelRun) step() {
	t, rng := r.t, r.rng
	blk := &FabricBlock{Number: r.ref.height}
	for n := rng.Intn(11); n > 0; n-- { // an empty block now and then
		kind := modelKind(rng.Intn(int(numModelKinds)))
		if rng.Intn(3) == 0 {
			kind = kindValid
		}
		blk.Envs = append(blk.Envs, r.envelope(kind))
	}
	if n := len(blk.Envs); n > 1 && rng.Intn(4) == 0 {
		blk.Envs = append(blk.Envs, blk.Envs[rng.Intn(n)]) // twice in one block
	}
	charge, notices := r.apply(blk)

	from := r.c.Orderers[0].Ep.ID()
	for i, p := range r.peers {
		msg := blk
		if r.copies {
			msg = copyBlock(blk)
		}
		ctx := simnet.NewInjectedContext(r.c.Net, p.Endpoint())
		start := ctx.Now()
		p.OnMessage(ctx, from, msg)
		if got := ctx.Now() - start; got != charge {
			t.Fatalf("block %d peer %d: charged %v of virtual CPU, reference says %v", blk.Number, i, got, charge)
		}
		r.comparePeer(i, p, notices[p.orgName])
	}
	for i, p := range r.peers[1:] {
		if !r.peers[0].State().Equal(p.State()) || !p.State().Equal(r.peers[0].State()) {
			t.Fatalf("block %d: peer 0 and peer %d hold different states", blk.Number, i+1)
		}
		if !r.peers[0].Blocks().Equal(p.Blocks()) {
			t.Fatalf("block %d: peer 0 and peer %d hold different chains", blk.Number, i+1)
		}
	}
	n := uint64(len(r.peers))
	if got := r.c.Collector.RejectedTxns; got != n*r.ref.rejected {
		t.Fatalf("block %d: RejectedTxns = %d, reference says %d x %d", blk.Number, got, n, r.ref.rejected)
	}
	if got := r.c.Collector.MVCCAborts; got != n*r.ref.mvcc {
		t.Fatalf("block %d: MVCCAborts = %d, reference says %d x %d", blk.Number, got, n, r.ref.mvcc)
	}
}

func (r *modelRun) comparePeer(i int, p *Peer, notices map[types.TxID]bool) {
	t, ref := r.t, r.ref
	at := fmt.Sprintf("block %d peer %d", ref.height-1, i)
	if p.CommitHeight() != ref.height || p.Blocks().Height() != ref.height {
		t.Fatalf("%s: commit height %d, chain height %d, reference says %d", at, p.CommitHeight(), p.Blocks().Height(), ref.height)
	}
	if p.Blocks().LastDigest() != ref.tip {
		t.Fatalf("%s: chain tip differs from the reference's", at)
	}
	if p.State().Len() != len(ref.vals) {
		t.Fatalf("%s: %d live keys, reference says %d", at, p.State().Len(), len(ref.vals))
	}
	for _, k := range r.keys {
		val, ver, ok := p.State().Get(k)
		want, wantOK := ref.vals[k]
		if ok != wantOK || !bytes.Equal(val, want) || ver != ref.vers[k] {
			t.Fatalf("%s: %s reads (%q, %v, %v), reference says (%q, %v, %v)", at, k, val, ver, ok, want, ref.vers[k], wantOK)
		}
	}
	got := r.notes[p.Endpoint().ID()]
	delete(r.notes, p.Endpoint().ID())
	if len(got) != len(notices) {
		t.Fatalf("%s: notified %d outcomes, reference says %d", at, len(got), len(notices))
	}
	for _, e := range got {
		if aborted, ok := notices[e.TxID]; !ok || aborted != e.Aborted {
			t.Fatalf("%s: notified %x aborted=%v, reference says aborted=%v (to notify: %v)", at, e.TxID[:4], e.Aborted, aborted, ok)
		}
	}
}

func TestValidateModel(t *testing.T) {
	for _, tc := range []struct {
		variant Variant
		seed    int64
	}{{FastFabric, 1}, {FastFabric, 2}, {FastFabric, 3}, {HLF, 4}, {StreamChain, 5}} {
		for _, copies := range []bool{false, true} {
			name := fmt.Sprintf("%s/seed-%d/shared", tc.variant, tc.seed)
			if copies {
				name = fmt.Sprintf("%s/seed-%d/copies", tc.variant, tc.seed)
			}
			t.Run(name, func(t *testing.T) {
				r := newModelRun(t, tc.variant, tc.seed, copies)
				for b := 0; b < 60; b++ {
					r.step()
				}
				if r.ref.rejected == 0 || r.ref.mvcc == 0 || len(r.ref.vals) == 0 {
					t.Fatalf("the run exercised nothing: %d rejected, %d MVCC aborts, %d live keys", r.ref.rejected, r.ref.mvcc, len(r.ref.vals))
				}
				if d0, d2 := r.peers[0].State().Digest(), r.peers[2].State().Digest(); d0 != d2 {
					t.Fatal("peers on different key tables end with different state digests")
				}
				if err := r.c.CheckSafety(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
