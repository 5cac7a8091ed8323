package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/types"
)

// The consensus node's two parsers of bytes another consensus node chose:
// corrupt input is an error or an empty result, never a panic, and what an
// honest node encodes decodes to what it meant.

func FuzzDecodeOrderingPrefix(f *testing.F) {
	one := types.EncodeOrdering([]uint64{7}, []types.TxID{{1}})
	f.Add(one, []byte(nil))
	f.Add(one, make([]byte, 1024)) // a consensus-on-payload proposal
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{1})
	f.Add([]byte{0, 0, 0, 2}, make([]byte, 40))
	f.Fuzz(func(t *testing.T, b, payload []byte) {
		if seqs, hashes, err := decodeOrderingPrefix(b); err == nil && len(seqs) != len(hashes) {
			t.Fatalf("decoded %d sequence numbers and %d hashes", len(seqs), len(hashes))
		}
		// b read as 40-byte (sequence number, hash) entries is an ordering;
		// followed by any payload it decodes to exactly those entries.
		var seqs []uint64
		var hashes []types.TxID
		for ; len(b) >= 40; b = b[40:] {
			seqs = append(seqs, binary.BigEndian.Uint64(b))
			hashes = append(hashes, types.TxID(b[8:40]))
		}
		gotSeqs, gotHashes, err := decodeOrderingPrefix(append(types.EncodeOrdering(seqs, hashes), payload...))
		if err != nil {
			t.Fatalf("ordering of %d entries + %d payload bytes: %v", len(seqs), len(payload), err)
		}
		if !slices.Equal(gotSeqs, seqs) || !slices.Equal(gotHashes, hashes) {
			t.Fatalf("decoded (%v, %x), encoded (%v, %x)", gotSeqs, gotHashes, seqs, hashes)
		}
	})
}

func FuzzDecodeMeta(f *testing.F) {
	f.Add([]byte("client-3\x00client-1\x00"))
	f.Add([]byte("\x00\x00a\x00\x00b"))
	f.Add([]byte("client-1\x00client-1\x00"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, meta []byte) {
		ids := decodeMeta(meta)
		for _, id := range ids {
			if len(id) == 0 || slices.Contains([]byte(id), 0) {
				t.Fatalf("decoded identity %q", id)
			}
		}
		// Whatever identities a node votes for, its view-change payload
		// decodes to them, sorted and each once.
		n := &ConsNode{c: &Cluster{}, maliceVotes: make(map[crypto.Identity]bool)}
		for _, id := range ids {
			n.maliceVotes[id] = true
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := decodeMeta(n.ViewChangeMeta()); !slices.Equal(got, want) {
			t.Fatalf("votes %q decode to %q", want, got)
		}
	})
}

// FuzzPersistVote drives one PERSIST tally with votes from node indices in
// [0, 200), across the 128-bit mask into the spill map, for four kinds of
// echo: the first object, a field-equal copy with its content key warmed or
// not, and entries that differ. After every vote the count persistStatus.vote
// returns, through its object-identity fast path or not, must equal that of a
// plain map from content key to voters. Each draw is three bytes: the node
// index (two, big-endian, mod 200) and the echo kind.
func FuzzPersistVote(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 130, 0, 0, 199, 3})
	f.Add([]byte{0, 5, 3, 0, 5, 0, 0, 6, 0, 0, 150, 1, 0, 150, 0, 0, 140, 7})
	f.Add([]byte{0, 127, 2, 0, 128, 1, 0, 128, 0, 0, 64, 3, 0, 64, 7})
	f.Fuzz(func(t *testing.T, draws []byte) {
		entry := func(result byte, warm bool) *PersistEntry {
			e := &PersistEntry{Seq: 1, TxID: types.TxID{1}, VecDigest: crypto.Digest{2}, Consistent: true,
				ResultDigest: crypto.Digest{result}, Writes: []ledger.Write{{Key: "k", Val: []byte{result}}}}
			if warm {
				e.warmContentKey()
			}
			return e
		}
		first := entry(0, false)
		var ps persistStatus
		ref := make(map[crypto.Digest]map[int]bool)
		for ; len(draws) >= 3; draws = draws[3:] {
			node := int(binary.BigEndian.Uint16(draws)) % 200
			var e *PersistEntry
			switch kind := draws[2] % 4; kind {
			case 0:
				e = first
			case 1, 2:
				e = entry(0, kind == 2)
			default:
				e = entry(1+draws[2]/4%2, draws[2]/8%2 == 1)
			}
			key := entry(e.ResultDigest[0], false).contentKey()
			if ref[key] == nil {
				ref[key] = make(map[int]bool)
			}
			ref[key][node] = true
			if got, want := ps.vote(e, node), len(ref[key]); got != want {
				t.Fatalf("node %d voting for result %d: tally %d, reference %d", node, e.ResultDigest[0], got, want)
			}
		}
	})
}

// FuzzResultMemo draws a result vector and builds it three ways: warmed on
// the cluster's tables (as the assembling delegate sends it), warmed on
// another deployment's tables, and without a memo, so the consensus node
// derives it. Each goes to its own consensus node after the same proposal:
// all three must accept or reject it alike and queue echoes with equal fields
// and content keys, and a normal node applying each accepted echo as a commit
// does must reach an equal state. Each partition is three bytes: the
// organization, a flag byte (bit 0 aborted, bit 1 inconsistent, bits 2-3 at 1
// a junk signature and at 2 a write the signed digest does not cover, bits
// 4-5 the number of writes) and the writes' value; then one byte per write
// picks its key and its kind (a put, a put of an empty value, a delete).
func FuzzResultMemo(f *testing.F) {
	f.Add([]byte{0, 1, 0x20, 7, 0, 13})                                    // one org: a put and a delete
	f.Add([]byte{2, 0, 0x30, 5, 6, 1, 14, 2, 0x10, 9, 0, 3, 0x00, 0})      // three orgs, an empty value, a shared key
	f.Add([]byte{0, 1, 0x11, 3, 2})                                        // aborted
	f.Add([]byte{1, 0, 0x12, 4, 3, 1, 0x10, 4, 3})                         // inconsistent
	f.Add([]byte{0, 2, 0x14, 1, 0})                                        // a junk signature
	f.Add([]byte{1, 0, 0x10, 1, 0, 1, 0x18, 2, 1})                         // writes the signed digest does not cover
	f.Add([]byte{3, 0, 0x10, 1, 0, 1, 0x10, 2, 7, 2, 0x20, 3, 8, 9, 3, 0}) // four orgs
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg := smallConfig()
		cfg.NumOrgs = 4
		c, _ := buildCluster(t, cfg, defaultWorkload())
		const seq = uint64(1)
		id := types.TxID{0xb1, 0xd1}
		next := func() byte {
			if len(b) == 0 {
				return 0
			}
			v := b[0]
			b = b[1:]
			return v
		}
		var vec []OrgResult
		for n := 1 + int(next())%4; len(vec) < n; {
			org, flags, val := types.OrgName(int(next())%cfg.NumOrgs), next(), next()
			r := OrgResult{Org: org, Aborted: flags&1 != 0, Inconsistent: flags&2 != 0}
			for i := 0; i < int(flags>>4)%4; i++ {
				kind := next()
				w := ledger.Write{Key: fmt.Sprintf("k%d", kind%6)}
				switch kind / 6 % 3 {
				case 0:
					w.Val = []byte{val, byte(i)}
				case 1:
					w.Val = []byte{}
				default:
					w.Delete = true
				}
				r.Writes = append(r.Writes, w)
			}
			r.Digest = (&ledger.RWSet{Writes: r.Writes, Aborted: r.Aborted}).Digest()
			sig, err := c.Scheme.Sign(crypto.Identity(org), orgResultBytes(seq, id, org, r.Digest, r.Aborted, r.Inconsistent))
			if err != nil {
				t.Fatal(err)
			}
			r.Sig = sig
			switch flags >> 2 % 4 {
			case 1:
				r.Sig = crypto.Signature("junk")
			case 2:
				r.Writes = append(r.Writes, ledger.Write{Key: "unsigned", Val: []byte{val}})
			}
			vec = append(vec, r)
		}

		// Another deployment: its own key table and hash table, each
		// numbering something else first.
		hashes, elsewhere := dense.NewTable[types.TxID](), ledger.NewState()
		hashes.Intern(types.TxID{0xff})
		elsewhere.Put("unrelated", nil, ledger.Version{})
		entries := make([]ResultEntry, 3)
		for i := range entries {
			entries[i] = ResultEntry{Seq: seq, TxID: id, Vector: slices.Clone(vec)}
		}
		warmVector(&entries[0], c)
		entries[1].warm(elsewhere, hashes)

		ordering := types.EncodeOrdering([]uint64{seq}, []types.TxID{id})
		value := consensus.Value{Digest: types.OrderingDigest(ordering), Data: ordering}
		echoes := make([]*PersistEntry, len(entries)) // nil where the way was rejected
		for i := range entries {
			cn := c.ConsNodes[i]
			cnWithCtx(c, cn, func() {
				cn.Proposed(0, value)
				cn.evaluateResult(&entries[i])
			})
			switch len(cn.persistOut) {
			case 0:
			case 1:
				echoes[i] = cn.persistOut[0]
			default:
				t.Fatalf("way %d queued %d echoes for one vector", i, len(cn.persistOut))
			}
			if (echoes[i] == nil) != (echoes[0] == nil) {
				t.Fatalf("way %d accepted the vector: %t, way 0: %t", i, echoes[i] != nil, echoes[0] != nil)
			}
		}
		if echoes[0] == nil {
			return
		}
		fields := func(pe *PersistEntry) PersistEntry {
			return PersistEntry{Seq: pe.Seq, TxID: pe.TxID, VecDigest: pe.VecDigest, Consistent: pe.Consistent,
				ResultDigest: pe.ResultDigest, Writes: pe.Writes, Aborted: pe.Aborted}
		}
		for i, pe := range echoes {
			if !reflect.DeepEqual(fields(pe), fields(echoes[0])) || pe.contentKey() != echoes[0].contentKey() {
				t.Fatalf("way %d queued %+v, way 0 %+v", i, fields(pe), fields(echoes[0]))
			}
			nn := c.Orgs[1+i][0]
			if pe.Consistent && !pe.Aborted {
				nn.base.ApplyResolved(pe.Writes, pe.kids, ledger.Version{Block: 1})
			}
			if first := c.Orgs[1][0].base; !nn.base.Equal(first) || nn.base.Digest() != first.Digest() {
				t.Fatalf("applying way %d's echo reaches another state than way 0's", i)
			}
		}
	})
}

// FuzzTxPool drives one pool through drawn operations on 256 hashes, four
// record pages, that another node of the cluster interned first, against
// refPool plus what it leaves out: the agreed hashes, the sequence numbers
// holding a speculative result and the hashes the node heard of. Each
// operation is three bytes: the kind, the hash's ordinal, and a sequence
// number (the byte times 3, so twelve slot pages). After each, every hash
// reads as the reference says (the zero record if never heard of), every
// sequence number holds the reference's payload with its live record, and
// the shared retired page still reads committed and nothing else.
func FuzzTxPool(f *testing.F) {
	var page0 []byte // commit 63 of page 0's hashes; the 64th stays unheard of
	for i := 0; i < 63; i++ {
		page0 = append(page0, 3, byte(i), byte(i))
	}
	f.Add(page0)
	f.Add(append([]byte{0, 63, 9, 6, 0, 9}, page0...))          // the 64th pooled, speculated on, then the 63 commit
	f.Add(append(append([]byte{}, page0...), 3, 63, 0, 2, 5, 7, // the page retires; agree revives it
		0, 5, 7, 1, 5, 8, 0, 70, 7, 2, 5, 7, 1, 70, 7, 7, 0, 0))
	rng := rand.New(rand.NewSource(1))
	drawn := func(page, ops int) []byte { // ordinals mostly on one page
		b := make([]byte, 3*ops)
		rng.Read(b)
		for i := 1; i < len(b); i += 3 {
			if b[i]%4 != 0 {
				b[i] = byte(page*dense.PageSize) + b[i]%dense.PageSize
			}
		}
		return b
	}
	for page := 0; page < 4; page++ { // drawn operations around the commit of a whole page
		b := drawn(page, 500)
		for _, i := range rng.Perm(dense.PageSize) {
			b = append(b, 3, byte(page*dense.PageSize+i), byte(rng.Intn(256)))
		}
		f.Add(append(b, drawn(page, 500)...))
	}
	txs := make([]*types.Transaction, 4*dense.PageSize)
	for i := range txs {
		txs[i] = poolTx(uint64(i))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		hashes := dense.NewTable[types.TxID]()
		for _, tx := range txs {
			hashes.Intern(tx.ID())
		}
		p, ref := newTxPoolOn(hashes), newRefPool()
		agreed, heard, specs := make(map[types.TxID]bool), make(map[types.TxID]bool), make(map[uint64]bool)
		for op := 0; len(b) >= 3; op, b = op+1, b[3:] {
			ord, seq := uint32(b[1]), uint64(b[2])*3
			tx := txs[ord]
			id := tx.ID()
			what := fmt.Sprintf("op %d (kind %d, ordinal %d, seq %d)", op, b[0]%8, ord, seq)
			switch b[0] % 8 {
			case 0:
				got, want := p.addOrd(seq, tx, ord), ref.add(seq, tx)
				if got != want {
					t.Fatalf("%s: add = %d; reference %d", what, got, want)
				}
				heard[id] = heard[id] || got == poolAdded
			case 1:
				p.replaceOrd(seq, tx, ord)
				ref.replace(seq, tx)
				heard[id] = true
			case 2:
				occ, held := ref.bySeq[seq]
				r, squatter := p.agree(seq, ord)
				if !r.agreed || r.committed != ref.committed[id] || (squatter != nil) != (held && occ != tx) ||
					(squatter != nil && squatter.tx != occ) {
					t.Fatalf("%s: agree reports committed %t, squatter %t; reference holds %s", what, r.committed, squatter != nil, txName(occ))
				}
				agreed[id], heard[id] = true, true
			case 3, 4:
				p.commit(p.rec(ord), ord)
				ref.markCommitted(id)
				heard[id] = true
			case 5:
				p.drop(seq)
				ref.drop(seq)
			case 6: // the node speculates on the payload at seq
				if s := p.slotAt(seq); s != nil {
					p.note(seq).spec = s.rec
					specs[seq] = true
				}
			default:
				if got := p.dropSpecs(); got != len(specs) {
					t.Fatalf("%s: dropSpecs dropped %d; reference %d", what, got, len(specs))
				}
				clear(specs)
			}
			for i, tx := range txs {
				id := tx.ID()
				r := p.known(id)
				seq, pooled := ref.byHash[id]
				switch {
				case !heard[id]:
					if r != (txRec{}) {
						t.Fatalf("%s: ordinal %d, never heard of, reads %+v", what, i, r)
					}
				case r.committed != ref.committed[id] || r.pooled != pooled || (pooled && r.seq != seq):
					t.Fatalf("%s: ordinal %d reads committed %t, pooled %t at %d; reference %t, %t at %d",
						what, i, r.committed, r.pooled, r.seq, ref.committed[id], pooled, seq)
				case !r.committed && r.agreed != agreed[id]:
					t.Fatalf("%s: ordinal %d reads agreed %t; reference %t", what, i, r.agreed, agreed[id])
				}
			}
			for seq := uint64(0); seq < 256*3; seq += 3 {
				s, want := p.slotAt(seq), ref.bySeq[seq]
				if (s == nil) != (want == nil) || (s != nil && (s.tx != want || *s.rec != p.known(want.ID()) || s.rec.seq != seq)) {
					t.Fatalf("%s: sequence number %d holds a payload %t; reference %s", what, seq, s != nil, txName(want))
				}
			}
			if !retiredPristine() {
				t.Fatalf("%s: a write reached the shared retired page", what)
			}
		}
	})
}
