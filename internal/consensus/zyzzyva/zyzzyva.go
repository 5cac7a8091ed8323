// Package zyzzyva implements a Zyzzyva-style speculative BFT protocol with
// the batch optimization the paper applies (§6): the leader orders a batch,
// replicas speculatively respond, and — following the paper's setup — a
// designated non-leader collector gathers responses and distributes commit
// messages for each block.
//
// Fast path: 3f+1 matching speculative responses commit in three message
// delays. Slow path: after a collector timeout, 2f+1 responses form a
// commit certificate that must be acknowledged by a 2f+1 quorum before
// delivery (the extra phase Zyzzyva pays under faults).
package zyzzyva

import (
	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// Message kinds.
const (
	kindOrderReq    = iota // leader → all
	kindSpecResp           // replica → collector
	kindCommitFast         // collector → all (3f+1 path)
	kindCommitCert         // collector → all (2f+1 path)
	kindLocalCommit        // replica → collector
	kindFullCommit         // collector → all
)

// Msg is the wire type of the normal case; view changes travel as
// consensus.ViewMsg.
type Msg struct {
	Kind   int
	View   uint64
	Seq    uint64
	Node   int
	Digest crypto.Digest
	Data   []byte
	Sig    crypto.Signature
	Certs  []types.NodeSig
}

// Size implements consensus.Msg.
func (m *Msg) Size() int {
	return 1 + 8 + 8 + 4 + 32 + len(m.Data) + len(m.Sig) + len(m.Certs)*(4+64)
}

type instance struct {
	consensus.Slot
	specs  map[int]crypto.Signature // collector: spec responses
	acks   map[int]crypto.Signature // collector: local commits
	sentCC bool
}

// Replica is one Zyzzyva consensus node: the speculative normal case on the
// shared replica core.
type Replica struct {
	consensus.Core[*instance]
}

// New creates a Zyzzyva replica.
func New(cfg consensus.Config, host consensus.Host) *Replica {
	r := &Replica{}
	r.Init(cfg, host, consensus.Protocol[*instance]{
		NewInstance: func() *instance {
			return &instance{specs: make(map[int]crypto.Signature), acks: make(map[int]crypto.Signature)}
		},
		ProposeAt:  r.proposeAt,
		Rank:       consensus.RankUndecided[*instance],
		Supersedes: consensus.HigherRank,
		Announce:   r.Broadcast,
	})
	return r
}

// Collector returns the designated response collector for the current view:
// the non-leader node following the leader.
func (r *Replica) Collector() int { return (r.Leader() + 1) % r.Cfg.N }

func (r *Replica) proposeAt(seq uint64, v consensus.Value) {
	in := r.Inst(seq)
	in.Digest, in.Data, in.Have = v.Digest, v.Data, true
	r.Host.Proposed(seq, v)
	r.Host.Elapse(r.Cfg.MACCompute)
	r.Host.BroadcastCN(&Msg{Kind: kindOrderReq, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: v.Digest, Data: v.Data})
	// The leader's own speculative response.
	r.sendSpec(seq, in)
	r.ArmTimer()
}

func (r *Replica) sendSpec(seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.SigSign)
	sig := r.Host.Sign(types.CertSigningBytes(r.View(), seq, in.Digest))
	if r.Collector() == r.Cfg.Self {
		r.acceptSpec(r.Cfg.Self, seq, in, sig)
		return
	}
	r.Host.Send(r.Collector(), &Msg{Kind: kindSpecResp, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: in.Digest, Sig: sig})
}

// Step implements consensus.Replica.
func (r *Replica) Step(from int, m consensus.Msg) {
	msg, ok := m.(*Msg)
	if !ok {
		r.StepView(from, m)
		return
	}
	switch msg.Kind {
	case kindOrderReq:
		r.onOrderReq(from, msg)
	case kindSpecResp:
		r.onSpecResp(from, msg)
	case kindCommitFast, kindFullCommit:
		r.onCommit(from, msg)
	case kindCommitCert:
		r.onCommitCert(from, msg)
	case kindLocalCommit:
		r.onLocalCommit(from, msg)
	}
}

func (r *Replica) onOrderReq(from int, m *Msg) {
	r.Host.Elapse(r.Cfg.MACVerify)
	if m.View != r.View() || !r.InView() || from != r.Leader() {
		return
	}
	in := r.Inst(m.Seq)
	if in.Decided {
		return
	}
	if in.Have && in.Digest != m.Digest {
		r.RequestViewChange()
		return
	}
	in.Digest, in.Data, in.Have = m.Digest, m.Data, true
	r.Host.Proposed(m.Seq, consensus.Value{Digest: m.Digest, Data: m.Data})
	r.sendSpec(m.Seq, in)
	r.ArmTimer()
}

func (r *Replica) onSpecResp(from int, m *Msg) {
	if m.View != r.View() || !r.InView() || r.Collector() != r.Cfg.Self {
		return
	}
	r.Host.Elapse(r.Cfg.SigVerify)
	if !r.Host.VerifyNode(from, types.CertSigningBytes(m.View, m.Seq, m.Digest), m.Sig) {
		return
	}
	in := r.Inst(m.Seq)
	// Spec responses follow the leader's order-request (two hops vs one),
	// so a response for an unknown or mismatched instance is discarded;
	// the slow path recovers if the fast quorum never forms.
	if !in.Have || in.Digest != m.Digest {
		return
	}
	r.acceptSpec(from, m.Seq, in, m.Sig)
}

func (r *Replica) acceptSpec(from int, seq uint64, in *instance, sig crypto.Signature) {
	if in.Decided {
		return
	}
	in.specs[from] = sig
	if len(in.specs) >= r.Cfg.FastQuorum() {
		// Fast path: everyone responded consistently.
		consensus.Phase(r.Host, "fast-quorum", r.View(), seq)
		r.commit(kindCommitFast, seq, in, in.specs, r.Cfg.FastQuorum())
		return
	}
	if len(in.specs) == r.Cfg.Quorum() && !in.sentCC {
		// Arm the slow-path timer: if the fast quorum does not arrive,
		// fall back to the two-phase commit-certificate path.
		r.AfterInEpoch(r.Cfg.FastPathWait(), func() {
			if in.Decided || in.sentCC || len(in.specs) >= r.Cfg.FastQuorum() {
				return
			}
			in.sentCC = true
			consensus.Phase(r.Host, "commit-cert", r.View(), seq)
			cert := consensus.BuildCert(r.View(), seq, in.Digest, in.specs, r.Cfg.Quorum())
			r.Host.BroadcastCN(&Msg{Kind: kindCommitCert, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: in.Digest, Certs: cert.Sigs})
			// The collector's own local commit.
			r.Host.Elapse(r.Cfg.SigSign)
			in.acks[r.Cfg.Self] = r.Host.Sign(types.CertSigningBytes(r.View(), seq, in.Digest))
			r.maybeFullCommit(seq, in)
		})
	}
}

// commit distributes the certificate over the first limit of sigs and
// decides locally.
func (r *Replica) commit(kind int, seq uint64, in *instance, sigs map[int]crypto.Signature, limit int) {
	cert := consensus.BuildCert(r.View(), seq, in.Digest, sigs, limit)
	r.Host.BroadcastCN(&Msg{Kind: kind, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: in.Digest, Data: in.Data, Certs: cert.Sigs})
	r.Decide(seq, in, "decided", cert)
}

func (r *Replica) onCommit(from int, m *Msg) {
	if from != (r.Cfg.Policy.Leader(m.View)+1)%r.Cfg.N {
		return
	}
	// Verify the assembled certificate (modeled as one aggregate check).
	r.Host.Elapse(r.Cfg.SigVerify)
	in := r.Inst(m.Seq)
	if in.Decided {
		return
	}
	if !in.Have {
		in.Digest, in.Data, in.Have = m.Digest, m.Data, true
	}
	if in.Digest != m.Digest {
		return
	}
	r.Decide(m.Seq, in, "decided", &types.Certificate{View: m.View, Number: m.Seq, Digest: m.Digest, Sigs: m.Certs})
}

func (r *Replica) onCommitCert(from int, m *Msg) {
	if m.View != r.View() || !r.InView() || from != r.Collector() {
		return
	}
	r.Host.Elapse(r.Cfg.SigVerify)
	in := r.Inst(m.Seq)
	if in.Decided {
		return
	}
	if !in.Have {
		in.Digest, in.Have = m.Digest, true
	}
	if in.Digest != m.Digest {
		return
	}
	// Acknowledge the commit certificate.
	r.Host.Elapse(r.Cfg.SigSign)
	sig := r.Host.Sign(types.CertSigningBytes(m.View, m.Seq, m.Digest))
	r.Host.Send(r.Collector(), &Msg{Kind: kindLocalCommit, View: m.View, Seq: m.Seq, Node: r.Cfg.Self, Digest: m.Digest, Sig: sig})
}

func (r *Replica) onLocalCommit(from int, m *Msg) {
	if m.View != r.View() || !r.InView() || r.Collector() != r.Cfg.Self {
		return
	}
	r.Host.Elapse(r.Cfg.SigVerify)
	if !r.Host.VerifyNode(from, types.CertSigningBytes(m.View, m.Seq, m.Digest), m.Sig) {
		return
	}
	in := r.Inst(m.Seq)
	if in.Digest != m.Digest {
		return
	}
	in.acks[from] = m.Sig
	r.maybeFullCommit(m.Seq, in)
}

func (r *Replica) maybeFullCommit(seq uint64, in *instance) {
	if in.Decided || len(in.acks) < r.Cfg.Quorum() {
		return
	}
	r.commit(kindFullCommit, seq, in, in.acks, r.Cfg.Quorum())
}
