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

type instance struct {
	consensus.Slot
	specs  consensus.Votes // collector: spec responses
	acks   consensus.Votes // collector: local commits
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
			return &instance{specs: consensus.NewVotes(cfg.N), acks: consensus.NewVotes(cfg.N)}
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

func (r *Replica) proposeAt(seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.MACCompute)
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindOrderReq, Seq: seq, Digest: in.Digest, Data: in.Data})
	// The leader's own speculative response.
	r.sendSpec(seq, in)
}

func (r *Replica) sendSpec(seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.SigSign)
	sig := r.SignCert(seq, in.Digest)
	if r.Collector() == r.Cfg.Self {
		r.acceptSpec(r.Cfg.Self, seq, in, sig)
		return
	}
	r.SendPhase(r.Collector(), &consensus.PhaseMsg{Kind: kindSpecResp, Seq: seq, Digest: in.Digest, Sig: sig})
}

// Step implements consensus.Replica.
func (r *Replica) Step(from int, m consensus.Msg) {
	msg, ok := m.(*consensus.PhaseMsg)
	if !ok {
		r.StepView(from, m)
		return
	}
	switch msg.Kind {
	case kindOrderReq:
		r.Host.Elapse(r.Cfg.MACVerify)
		if in, ok := r.Accept(from, msg); ok {
			r.sendSpec(msg.Seq, in)
			r.ArmTimer()
		}
	case kindSpecResp:
		r.onSpecResp(from, msg)
	case kindCommitFast, kindFullCommit:
		// The collector of the commit's view sent it; checking its
		// certificate is charged as one aggregate verification.
		if from == (r.Cfg.Policy.Leader(msg.View)+1)%r.Cfg.N {
			r.Host.Elapse(r.Cfg.SigVerify)
			r.DecideCert(msg)
		}
	case kindCommitCert:
		r.onCommitCert(from, msg)
	case kindLocalCommit:
		r.onLocalCommit(from, msg)
	}
}

func (r *Replica) onSpecResp(from int, m *consensus.PhaseMsg) {
	if m.View != r.View() || !r.InView() || r.Collector() != r.Cfg.Self {
		return
	}
	r.Host.Elapse(r.Cfg.SigVerify)
	if !r.SignedBy(from, m) {
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
	in.specs.Add(from, sig)
	if in.specs.Len() >= r.Cfg.FastQuorum() {
		// Fast path: everyone responded consistently.
		r.Host.ConsensusPhase("fast-quorum", r.View(), seq)
		r.commit(kindCommitFast, seq, in, &in.specs, r.Cfg.FastQuorum())
		return
	}
	if in.specs.Len() == r.Cfg.Quorum() && !in.sentCC {
		// Arm the slow-path timer: if the fast quorum does not arrive,
		// fall back to the two-phase commit-certificate path.
		r.AfterInEpoch(r.Cfg.FastPathWait(), func() {
			if in.Decided || in.sentCC || in.specs.Len() >= r.Cfg.FastQuorum() {
				return
			}
			in.sentCC = true
			r.Host.ConsensusPhase("commit-cert", r.View(), seq)
			cert := in.specs.Cert(r.View(), seq, in.Digest, r.Cfg.Quorum())
			r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindCommitCert, Seq: seq, Digest: in.Digest, Certs: cert.Sigs})
			// The collector's own local commit.
			r.Host.Elapse(r.Cfg.SigSign)
			in.acks.Add(r.Cfg.Self, r.SignCert(seq, in.Digest))
			r.maybeFullCommit(seq, in)
		})
	}
}

// commit distributes the certificate over the first limit of votes and
// decides locally.
func (r *Replica) commit(kind int, seq uint64, in *instance, votes *consensus.Votes, limit int) {
	cert := votes.Cert(r.View(), seq, in.Digest, limit)
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kind, Seq: seq, Digest: in.Digest, Data: in.Data, Certs: cert.Sigs})
	r.Decide(seq, in, "decided", cert)
}

func (r *Replica) onCommitCert(from int, m *consensus.PhaseMsg) {
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
	r.SendPhase(r.Collector(), &consensus.PhaseMsg{Kind: kindLocalCommit, Seq: m.Seq, Digest: m.Digest, Sig: r.SignCert(m.Seq, m.Digest)})
}

func (r *Replica) onLocalCommit(from int, m *consensus.PhaseMsg) {
	if m.View != r.View() || !r.InView() || r.Collector() != r.Cfg.Self {
		return
	}
	r.Host.Elapse(r.Cfg.SigVerify)
	if !r.SignedBy(from, m) {
		return
	}
	// A local commit answers the commit certificate this collector sent.
	in := r.Inst(m.Seq)
	if !in.Have || in.Digest != m.Digest {
		return
	}
	in.acks.Add(from, m.Sig)
	r.maybeFullCommit(m.Seq, in)
}

func (r *Replica) maybeFullCommit(seq uint64, in *instance) {
	if in.Decided || in.acks.Len() < r.Cfg.Quorum() {
		return
	}
	r.commit(kindFullCommit, seq, in, &in.acks, r.Cfg.Quorum())
}
