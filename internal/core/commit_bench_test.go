package core

import (
	"fmt"
	"testing"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// BenchmarkNormalNodeCommit times what one normal node (an organization's
// delegate) does for one full block in the order a healthy run delivers it:
// the sequencer's multicast of 500 transactions, every consensus node's
// PERSIST echoes in two batches, then the agreed block, which commits on its
// first attempt. A is the paper's setting A (4 consensus nodes: 8 batches), B
// its setting B (97 consensus nodes, f = 32: 194 batches, 97 x 500 echoes),
// whose batches arrive with their signature verdict known, as they do at 96 of
// every 97 receivers: B times the tally, not the verification. Every consensus
// node sends the same echo objects, as the cluster does. ns/op and allocs/op
// are per block; building and signing the messages is outside the timer.
// `make hotpath-smoke` runs one block of each, which also asserts that it
// commits.
func BenchmarkNormalNodeCommit(b *testing.B) {
	b.Run("A", func(b *testing.B) { benchNormalNodeCommit(b, DefaultConfig(), false) })
	b.Run("B", func(b *testing.B) { benchNormalNodeCommit(b, settingB(), true) })
}

// settingB is the paper's setting B: 97 organizations, 97 consensus nodes.
func settingB() Config {
	cfg := DefaultConfig()
	cfg.NumOrgs, cfg.NumConsensus, cfg.F = 97, 97, 32
	return cfg
}

// commitBench is one normal node (an organization's delegate) of a cluster,
// fed one block after another as a healthy run delivers them.
type commitBench struct {
	c        *Cluster
	gen      *workload.Generator
	nn       *NormalNode
	ctx      *simnet.Context
	verified bool
	number   int
}

func newCommitBench(tb testing.TB, cfg Config, verified bool) *commitBench {
	c, gen := buildCluster(tb, cfg, defaultWorkload())
	c.Net.DropFilter = func(simnet.NodeID, simnet.NodeID, simnet.Message) bool { return true }
	nn := c.Orgs[0][0]
	return &commitBench{c: c, gen: gen, nn: nn, ctx: simnet.NewInjectedContext(c.Net, nn.ep), verified: verified}
}

// next builds the next block's messages and returns their delivery.
func (f *commitBench) next(tb testing.TB) func() {
	c, nn, size, number := f.c, f.nn, f.c.Cfg.BlockSize, f.number
	f.number++
	batch := &SeqBatch{}
	seqs, hashes := make([]uint64, size), make([]types.TxID, size)
	pes := make([]PersistEntry, size)
	for i, tx := range f.gen.Batch(size) {
		seqs[i], hashes[i] = uint64(number*size+i+1), tx.ID()
		batch.Txns = append(batch.Txns, types.SequencedTx{Seq: seqs[i], Tx: tx})
		pes[i] = PersistEntry{Seq: seqs[i], TxID: hashes[i], Consistent: true,
			Writes: []ledger.Write{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}
		pes[i].warmContentKey()
		// as the assembling delegate does (ResultEntry.warm)
		pes[i].kids = nn.base.Resolve(pes[i].Writes)
		pes[i].ord.Resolve(c.Hashes, make([]uint32, 1), func(int) types.TxID { return hashes[i] })
	}
	shared := echoes(pes...) // every consensus node sends the same echo objects
	batch.resolve(c.Hashes)  // as the sequencer does
	var persists []*PersistMsg
	for cn := range c.ConsNodes {
		for _, half := range [][]*PersistEntry{shared[:size/2], shared[size/2:]} {
			msg := &PersistMsg{Node: cn, Entries: half}
			msg.sign(c.ConsNodes[cn].Sign)
			if f.verified {
				msg.authentic(c.Scheme)
			}
			persists = append(persists, msg)
		}
	}
	block := &BlockMsg{Number: uint64(number), Ordering: types.EncodeOrdering(seqs, hashes)}
	block.Cert = &types.Certificate{Number: block.Number, Digest: block.OrderingDig()}
	for cn := 0; cn < c.Cfg.quorum(); cn++ {
		sig, err := c.Scheme.Sign(cnIdentity(cn), types.CertSigningBytes(0, block.Number, block.Cert.Digest))
		if err != nil {
			tb.Fatal(err)
		}
		block.Cert.Sigs = append(block.Cert.Sigs, types.NodeSig{Node: cn, Sig: sig})
	}
	block.warmCaches()
	return func() {
		nn.bind(f.ctx, func() {
			nn.onSeqBatch(batch)
			for _, msg := range persists {
				nn.onPersist(c.ConsNodes[msg.Node].Ep.ID(), msg)
			}
			nn.onBlock(block)
		})
	}
}

func benchNormalNodeCommit(b *testing.B, cfg Config, verified bool) {
	f := newCommitBench(b, cfg, verified)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		deliver := f.next(b)
		b.StartTimer()
		deliver()
	}
	b.StopTimer()
	if f.nn.commitHeight != uint64(b.N) {
		b.Fatalf("committed %d of %d blocks", f.nn.commitHeight, b.N)
	}
}
