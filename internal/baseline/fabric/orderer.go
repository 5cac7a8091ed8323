package fabric

import (
	"sync/atomic"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simhost"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// Orderer is one ordering-service node hosting a consensus replica. The
// leader batches client envelopes into blocks; under consensus-on-hash (§6,
// enabled for all frameworks) agreement runs over envelope hashes while
// payloads travel separately:
//
//   - HLF: the leader disseminates payloads to all consensus nodes
//     (PayloadShare), so any of them can verify proposals (Table 4 S2).
//   - FastFabric: a single trusted orderer keeps payloads to itself and
//     sends only hashes through Raft.
type Orderer struct {
	// Host is the replica transport (Idx, Ep, Ctx, Rep and the transport
	// half of consensus.Host).
	simhost.Host
	c *Cluster

	pendingEnvs []*Envelope
	byHash      map[types.TxID]*Envelope
	batchTimer  simnet.Timer
	// keys resolves the keys of proposed envelopes in the deployment's table.
	keys *ledger.Resolver

	delivered   map[uint64]*FabricBlock
	chainHeight uint64

	// ProposeGarbage makes a malicious leader propose invalid envelopes
	// (Table 4 S2).
	ProposeGarbage bool
	vcOnce         bool
}

func newOrderer(c *Cluster) *Orderer {
	o := &Orderer{
		c:         c,
		byHash:    make(map[types.TxID]*Envelope),
		keys:      ledger.NewResolver(c.Keys),
		delivered: make(map[uint64]*FabricBlock),
	}
	o.batchTimer = o.Timer(o.proposePartial)
	return o
}

// OnStart implements simnet.Starter.
func (o *Orderer) OnStart(ctx *simnet.Context) {
	o.Bind(ctx, func() { o.Rep.Start() })
}

// OnRestart implements simnet.Restarter: envelopes queued before the crash
// re-arm the batch timer.
func (o *Orderer) OnRestart(ctx *simnet.Context) {
	o.Bind(ctx, o.maybeBatch)
}

// OnMessage implements simnet.Handler.
func (o *Orderer) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	o.Bind(ctx, func() {
		switch m := msg.(type) {
		case *SubmitEnvelopes:
			o.onSubmit(m)
		case *PayloadShare:
			for _, env := range m.Envs {
				o.byHash[env.Tx.ID()] = env
			}
		case *FabricBlockFetch:
			o.onBlockFetch(from, m)
		case consensus.Msg:
			o.Receive(from, m)
		}
	})
}

func (o *Orderer) onSubmit(m *SubmitEnvelopes) {
	if !o.Rep.IsLeader() {
		// Forward to the leader.
		o.Ctx.Send(o.c.Orderers[o.c.LeaderIndex()].Ep.ID(), m)
		return
	}
	for _, env := range m.Envs {
		o.Ctx.Elapse(o.c.Cfg.Costs.MACVerify)
		id := env.Tx.ID()
		if _, ok := o.byHash[id]; ok {
			continue
		}
		if o.ProposeGarbage {
			env = o.garbageEnvelope(env)
			id = env.Tx.ID()
		}
		o.byHash[id] = env
		o.pendingEnvs = append(o.pendingEnvs, env)
		if tr := o.c.Cfg.Tracer; tr != nil {
			// The leader orderer accepting the envelope into its batch queue
			// is Fabric's sequencing point.
			tr.TxStage(id, trace.StageSequenced, int(o.Ep.ID()), o.Ctx.Now())
		}
	}
	o.maybeBatch()
}

func (o *Orderer) maybeBatch() {
	for len(o.pendingEnvs) >= o.c.Cfg.BlockSize {
		batch := o.pendingEnvs[:o.c.Cfg.BlockSize]
		o.pendingEnvs = o.pendingEnvs[o.c.Cfg.BlockSize:]
		o.proposeBatch(batch)
	}
	if len(o.pendingEnvs) > 0 {
		o.batchTimer.Arm(o.Ctx, o.c.Cfg.BlockTimeout)
	}
}

// proposePartial proposes the envelopes a block timeout left queued: fewer
// than a block, since maybeBatch proposes every full one.
func (o *Orderer) proposePartial() {
	if o.Rep.IsLeader() && len(o.pendingEnvs) > 0 {
		batch := o.pendingEnvs
		o.pendingEnvs = batch[len(batch):]
		o.proposeBatch(batch)
	}
	o.maybeBatch()
}

// resolveKeys memoises the ids of env's read and write keys for the peers.
func resolveKeys(r *ledger.Resolver, env *Envelope) {
	env.rkeys = r.Resolve(len(env.Reads), func(i int) string { return env.Reads[i].Key })
	env.wkeys = r.Resolve(len(env.Writes), func(i int) string { return env.Writes[i].Key })
}

func (o *Orderer) proposeBatch(envs []*Envelope) {
	hashes := make([]types.TxID, len(envs))
	seqs := make([]uint64, len(envs))
	total := 0
	for i, env := range envs {
		hashes[i] = env.Tx.ID()
		total += env.Size()
		resolveKeys(o.keys, env)
	}
	// HLF: disseminate payloads to the other consensus nodes so they can
	// verify the proposal contents.
	if o.c.Cfg.Variant == HLF {
		o.BroadcastCN(&PayloadShare{Envs: envs})
	}
	ordering := types.EncodeOrdering(seqs, hashes)
	o.Ctx.Elapse(o.c.Cfg.Costs.Hash(total) + o.c.Cfg.Costs.BlockOverhead)
	v := consensus.Value{Digest: types.OrderingDigest(ordering), Data: ordering}
	o.Rep.Propose(v)
}

// --- consensus.Host: what decisions mean to an orderer (transport: simhost.Host) ---

// ViewChangeMeta implements consensus.Host.
func (o *Orderer) ViewChangeMeta() []byte { return nil }

// ViewChanged implements consensus.Host.
func (o *Orderer) ViewChanged(view uint64, leader int, metas [][]byte) {
	o.vcOnce = false
	if o.Idx == 0 {
		atomic.AddUint64(&o.c.Collector.ViewChanges, 1)
	}
}

// Proposed implements consensus.Host (unused by the baselines).
func (o *Orderer) Proposed(seq uint64, v consensus.Value) {}

// Deliver implements consensus.Host: assemble the block and send it to
// every peer.
func (o *Orderer) Deliver(seq uint64, v consensus.Value, cert *types.Certificate) {
	_, hashes, err := types.DecodeOrdering(v.Data)
	if err != nil {
		// Null requests (a new leader's hole filler) become empty blocks:
		// peers commit strictly in order, so the chain must advance past
		// the sequence either way.
		hashes = nil
	}
	blk := &FabricBlock{Number: seq, Cert: cert}
	missing := 0
	invalid := 0
	checked := 0
	for _, h := range hashes {
		env, ok := o.byHash[h]
		if !ok {
			missing++
			continue
		}
		// HLF consensus nodes verify payloads (sampled) — a garbage
		// proposal triggers a view change (Table 4 S2).
		if o.c.Cfg.Variant == HLF && checked < substrate.SampleVerify {
			checked++
			o.Ctx.Elapse(o.c.Cfg.Costs.SigVerify)
			if !env.Tx.VerifySig(o.c.Scheme) {
				invalid++
			}
		}
		blk.Envs = append(blk.Envs, env)
	}
	if invalid > 0 && !o.vcOnce {
		o.vcOnce = true
		atomic.AddUint64(&o.c.Collector.RejectedTxns, uint64(invalid))
		o.Rep.RequestViewChange()
	}
	o.delivered[seq] = blk
	for {
		b, ok := o.delivered[o.chainHeight]
		if !ok {
			return
		}
		// Only the block's view leader disseminates to peers.
		if o.c.policyLeader(b.Cert, o.Rep) == o.Idx {
			if tr := o.c.Cfg.Tracer; tr != nil {
				for _, env := range b.Envs {
					tr.TxStage(env.Tx.ID(), trace.StageAgreed, int(o.Ep.ID()), o.Ctx.Now())
				}
			}
			b.resolve(o.c.Hashes)
			o.Ctx.SendEach(o.c.peerIDs, b)
		}
		// Retained past o.chainHeight: disseminated blocks stay in the
		// map so lagging peers can re-fetch them (FabricBlockFetch).
		o.chainHeight++
	}
}

// onBlockFetch re-sends committed blocks a lagging peer missed (crash or
// partition catch-up). Responses are capped so one request stays bounded;
// the peer re-requests as it advances.
func (o *Orderer) onBlockFetch(from simnet.NodeID, m *FabricBlockFetch) {
	to := m.To
	if to > o.chainHeight {
		to = o.chainHeight
	}
	const maxBlocks = 32
	if to > m.From+maxBlocks {
		to = m.From + maxBlocks
	}
	for n := m.From; n < to; n++ {
		if b, ok := o.delivered[n]; ok {
			o.Ctx.Send(from, b)
		}
	}
}

// garbageEnvelope replaces an envelope with an invalid one (S2 attack).
func (o *Orderer) garbageEnvelope(orig *Envelope) *Envelope {
	junk := make([]byte, 32)
	o.c.Sim.Rand().Read(junk)
	tx := &types.Transaction{
		Client:   "forged",
		Nonce:    o.c.Sim.Rand().Uint64(),
		Contract: "smallbank",
		Fn:       "send_payment",
		Args:     [][]byte{junk},
		Orgs:     orig.Tx.Orgs,
		Padding:  orig.Tx.Padding,
		Sig:      junk,
	}
	return &Envelope{Tx: tx}
}
