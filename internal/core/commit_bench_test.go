package core

import (
	"fmt"
	"testing"

	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// BenchmarkNormalNodeCommit times what one normal node (an organization's
// delegate on the paper's setting A) does for one full block in the order a
// healthy run delivers it: the sequencer's multicast of 500 transactions,
// the four consensus nodes' PERSIST echoes in eight batches, then the agreed
// block, which commits on its first attempt. ns/op and allocs/op are per
// block; building and signing the messages is outside the timer. `make
// hotpath-smoke` runs one block of it, which also asserts that it commits.
func BenchmarkNormalNodeCommit(b *testing.B) {
	cfg := DefaultConfig()
	c, gen := buildCluster(b, cfg, defaultWorkload())
	c.Net.DropFilter = func(simnet.NodeID, simnet.NodeID, simnet.Message) bool { return true }
	nn := c.Orgs[0][0]
	ctx := simnet.NewInjectedContext(c.Net, nn.ep)
	size := cfg.BlockSize

	b.ReportAllocs()
	b.ResetTimer()
	for number := 0; number < b.N; number++ {
		b.StopTimer()
		batch := &SeqBatch{}
		seqs, hashes := make([]uint64, size), make([]types.TxID, size)
		echoes := make([]PersistEntry, size)
		for i, tx := range gen.Batch(size) {
			seqs[i], hashes[i] = uint64(number*size+i+1), tx.ID()
			batch.Txns = append(batch.Txns, types.SequencedTx{Seq: seqs[i], Tx: tx})
			echoes[i] = PersistEntry{Seq: seqs[i], TxID: hashes[i], Consistent: true,
				Writes: []ledger.Write{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}
			echoes[i].warmContentKey()
			echoes[i].kids = nn.base.Resolve(echoes[i].Writes) // as the assembling delegate does
		}
		batch.resolve(c.Hashes) // as the sequencer does
		var persists []*PersistMsg
		for cn := range c.ConsNodes {
			for _, half := range [][]PersistEntry{echoes[:size/2], echoes[size/2:]} {
				msg := &PersistMsg{Node: cn, Entries: half}
				msg.sign(c.ConsNodes[cn].Sign)
				persists = append(persists, msg)
			}
		}
		block := &BlockMsg{Number: uint64(number), Ordering: types.EncodeOrdering(seqs, hashes)}
		block.Cert = &types.Certificate{Number: block.Number, Digest: block.OrderingDig()}
		for cn := 0; cn < cfg.quorum(); cn++ {
			sig, err := c.Scheme.Sign(cnIdentity(cn), types.CertSigningBytes(0, block.Number, block.Cert.Digest))
			if err != nil {
				b.Fatal(err)
			}
			block.Cert.Sigs = append(block.Cert.Sigs, types.NodeSig{Node: cn, Sig: sig})
		}
		block.warmCaches()
		b.StartTimer()

		nn.bind(ctx, func() {
			nn.onSeqBatch(batch)
			for _, msg := range persists {
				nn.onPersist(c.ConsNodes[msg.Node].Ep.ID(), msg)
			}
			nn.onBlock(block)
		})
	}
	b.StopTimer()
	if nn.commitHeight != uint64(b.N) {
		b.Fatalf("committed %d of %d blocks", nn.commitHeight, b.N)
	}
}
