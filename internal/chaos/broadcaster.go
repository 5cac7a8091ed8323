package chaos

import (
	"time"

	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// The adversaries of the paper's robustness evaluation (§6.2):
//
//   - Malicious leader (Table 4 S2, KindLeader): the leader's sequencer emits
//     invalid transactions instead of the real client traffic
//     (core.Cluster.SetLeaderEvil).
//   - Broadcaster (Table 4 S3, KindBroadcaster): a non-member node in the
//     datacenter that listens to the sequencer multicast and races it,
//     broadcasting transactions signed by colluding malicious clients under
//     sequence numbers just ahead of the observed frontier. Nodes that
//     receive the crafted copy first speculate on it; the agreed proposal
//     then mismatches, forcing re-execution (§4.6).
//   - Smart adversary (Fig 7, KindSmart): a Broadcaster that attacks only
//     while the consensus node leading when it was attached leads, trying
//     to escape the denylist's f+1-distinct-leaders rule; BIDL's proactive
//     view change and unpredictable rotation defeat it.

// Broadcaster is the malicious broadcaster endpoint.
type Broadcaster struct {
	c   *core.Cluster
	gen *workload.Generator
	f   Fault // knobs, defaults resolved
	ep  *simnet.Endpoint

	// target restricts attacking to views led by that consensus node (the
	// smart adversary); -1 attacks always.
	target         int
	frontier       uint64
	contested      uint64 // highest seq we already attacked
	observedLeader int
	leaderSince    time.Duration

	// Bursts counts attack bursts actually emitted.
	Bursts uint64
}

// NewBroadcaster attaches the broadcaster fault f describes to the cluster
// and arms it at f.At. It observes the transaction multicast group like any
// node in the datacenter.
func NewBroadcaster(c *core.Cluster, gen *workload.Generator, f Fault) *Broadcaster {
	b := &Broadcaster{c: c, gen: gen, f: f.withDefaults(), target: -1, observedLeader: -1}
	if f.Kind == KindSmart {
		b.target = c.LeaderIndex()
	}
	b.ep = c.AttachAdversary("adversary", 0, b)
	c.At(f.At.D(), b.tick)
	return b
}

// MaliciousIdentities returns the colluding clients' identities.
func (b *Broadcaster) MaliciousIdentities() []crypto.Identity {
	out := make([]crypto.Identity, 0, len(b.f.MaliciousClients))
	for _, i := range b.f.MaliciousClients {
		out = append(out, b.gen.Client(i))
	}
	return out
}

// OnMessage implements simnet.Handler: the adversary passively tracks the
// sequencer frontier from the multicast it receives.
func (b *Broadcaster) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if m, ok := msg.(*core.SeqBatch); ok {
		for _, st := range m.Txns {
			if st.Seq > b.frontier {
				b.frontier = st.Seq
			}
		}
	}
}

// active reports whether the adversary currently attacks, modeling lagged
// leadership detection.
func (b *Broadcaster) active() bool {
	if b.target < 0 {
		return true
	}
	actual := b.c.LeaderIndex()
	if actual != b.observedLeader {
		// Notice the change only after DetectLag.
		if b.leaderSince == 0 {
			b.leaderSince = b.c.Sim.Now()
		}
		if b.c.Sim.Now()-b.leaderSince >= b.f.DetectLag.D() {
			b.observedLeader = actual
			b.leaderSince = 0
		}
	} else {
		b.leaderSince = 0
	}
	return b.observedLeader == b.target
}

// tick emits one burst of crafted transactions ahead of the frontier.
func (b *Broadcaster) tick() {
	if b.active() && b.frontier > 0 {
		start := b.frontier + 1
		if b.contested >= start {
			start = b.contested + 1
		}
		end := b.frontier + uint64(b.f.Window)
		if end >= start {
			var crafted []types.SequencedTx
			for s := start; s <= end; s++ {
				ci := b.f.MaliciousClients[int(s)%len(b.f.MaliciousClients)]
				crafted = append(crafted, types.SequencedTx{Seq: s, Tx: b.gen.NextFrom(ci)})
			}
			b.contested = end
			b.Bursts++
			ctx := simnet.NewInjectedContext(b.c.Net, b.ep)
			ctx.Multicast(b.c.TxnGroup(), &core.SeqBatch{Txns: crafted})
		}
	}
	b.c.Sim.After(b.f.Interval.D(), b.tick)
}
