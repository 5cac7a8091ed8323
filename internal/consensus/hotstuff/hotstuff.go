// Package hotstuff implements a basic (non-chained) HotStuff BFT protocol:
// four leader-driven rounds (prepare → pre-commit → commit → decide) with
// linear communication — replicas vote to the leader, the leader combines
// votes into quorum certificates modeled as threshold signatures
// (ThresholdCombine at the leader, a single verification at replicas).
// This linearity is why HotStuff scales better than PBFT as the number of
// consensus nodes grows (visible in Fig 6).
package hotstuff

import (
	"encoding/binary"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// Message kinds.
const (
	kindPrepare    = iota // leader → all: proposal
	kindVotePrep          // replica → leader
	kindPreCommit         // leader → all: prepareQC
	kindVotePre           // replica → leader
	kindCommit            // leader → all: precommitQC (lock)
	kindVoteCommit        // replica → leader
	kindDecide            // leader → all: commitQC
)

type instance struct {
	consensus.Slot
	locked bool
	// leader-side vote tallies per phase
	votes [3]consensus.Votes
}

// lockedRank is the rank of a locked proposal (precommitQC seen) in a
// pacemaker message: it may have been decided somewhere, so it wins over an
// unlocked one (consensus.RankUndecided's 1) for its sequence.
const lockedRank = 2

// Replica is one HotStuff consensus node: the four-round normal case and the
// linear pacemaker on the shared replica core.
type Replica struct {
	consensus.Core[*instance]
}

// New creates a HotStuff replica.
func New(cfg consensus.Config, host consensus.Host) *Replica {
	r := &Replica{}
	r.Init(cfg, host, consensus.Protocol[*instance]{
		NewInstance: func() *instance {
			in := &instance{}
			for i := range in.votes {
				in.votes[i] = consensus.NewVotes(cfg.N)
			}
			return in
		},
		ProposeAt: r.proposeAt,
		Rank: func(in *instance) int {
			rank := consensus.RankUndecided(in)
			if rank > 0 && in.locked {
				rank = lockedRank
			}
			return rank
		},
		Supersedes: consensus.HigherRank,
		Announce:   r.sendToNextLeader,
		Wire:       consensus.Wire{Entry: 1}, // the lock flag
	})
	return r
}

func voteBytes(phase int, view, seq uint64, d crypto.Digest) []byte {
	buf := make([]byte, 0, 49)
	buf = append(buf, byte(phase))
	buf = binary.BigEndian.AppendUint64(buf, view)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return append(buf, d[:]...)
}

func (r *Replica) proposeAt(seq uint64, in *instance) {
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindPrepare, Seq: seq, Digest: in.Digest, Data: in.Data})
	// Leader votes for itself in the prepare phase.
	r.ownVote(0, seq, in)
}

// Step implements consensus.Replica. A QC travels in a message's Sig: no
// message carries both a vote and a QC.
func (r *Replica) Step(from int, m consensus.Msg) {
	switch msg := m.(type) {
	case *consensus.ViewMsg:
		if msg.NewView {
			r.onNewViewStart(from, msg)
		} else {
			r.onNewView(from, msg)
		}
	case *consensus.PhaseMsg:
		switch msg.Kind {
		case kindPrepare:
			if in, ok := r.Accept(from, msg); ok {
				r.vote(kindVotePrep, 0, msg.Seq, in)
				r.ArmTimer()
			}
		case kindVotePrep, kindVotePre, kindVoteCommit:
			r.onVote(from, msg)
		case kindPreCommit, kindCommit:
			r.onQC(from, msg)
		case kindDecide:
			// The leader of the decide's view sent it.
			if r.InView() && from == r.Cfg.Policy.Leader(msg.View) {
				r.Host.Elapse(r.Cfg.SigVerify)
				r.DecideCert(msg)
			}
		}
	}
}

func (r *Replica) vote(kind, phaseIdx int, seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.SigSign)
	sig := r.Host.Sign(signBytes(phaseIdx, r.View(), seq, in.Digest))
	r.SendPhase(r.Leader(), &consensus.PhaseMsg{Kind: kind, Seq: seq, Digest: in.Digest, Sig: sig})
}

// ownVote tallies the leader's own vote for a phase it just opened.
func (r *Replica) ownVote(phaseIdx int, seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.SigSign)
	in.votes[phaseIdx].Add(r.Cfg.Self, r.Host.Sign(signBytes(phaseIdx, r.View(), seq, in.Digest)))
}

// signBytes selects the byte string a phase vote covers: commit-phase votes
// sign the canonical certificate bytes so that 2f+1 of them form a standard
// types.Certificate; earlier phases use phase-tagged vote bytes.
func signBytes(phase int, view, seq uint64, d crypto.Digest) []byte {
	if phase == 2 {
		return types.CertSigningBytes(view, seq, d)
	}
	return voteBytes(phase, view, seq, d)
}

func phaseOfVote(kind int) int {
	switch kind {
	case kindVotePrep:
		return 0
	case kindVotePre:
		return 1
	default:
		return 2
	}
}

func (r *Replica) onVote(from int, m *consensus.PhaseMsg) {
	if m.View != r.View() || !r.InView() || !r.IsLeader() {
		return
	}
	in := r.Inst(m.Seq)
	if !in.Have || in.Digest != m.Digest || in.Decided {
		return
	}
	p := phaseOfVote(m.Kind)
	// Votes are threshold-signature shares: individual share checks run at
	// MAC rate and the expensive work is the combine step below (same
	// treatment as SBFT's collector), keeping the leader's per-view cost
	// near-linear in practice.
	r.Host.Elapse(r.Cfg.MACVerify)
	if !r.Host.VerifyNode(from, signBytes(p, m.View, m.Seq, m.Digest), m.Sig) {
		return
	}
	in.votes[p].Add(from, m.Sig)
	if in.votes[p].Len() != r.Cfg.Quorum() {
		return
	}
	// Quorum reached: combine into a QC and advance the phase.
	r.Host.Elapse(r.Cfg.ThresholdCombine)
	qcDigest := crypto.Hash(voteBytes(p, m.View, m.Seq, m.Digest))
	qc := crypto.Signature(qcDigest[:])
	switch p {
	case 0:
		r.Host.ConsensusPhase("prepare-qc", r.View(), m.Seq)
		r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindPreCommit, Seq: m.Seq, Digest: m.Digest, Sig: qc})
		r.ownVote(1, m.Seq, in)
	case 1:
		r.Host.ConsensusPhase("precommit-qc", r.View(), m.Seq)
		r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindCommit, Seq: m.Seq, Digest: m.Digest, Sig: qc})
		in.locked = true
		r.ownVote(2, m.Seq, in)
	case 2:
		// Commit votes sign types.CertSigningBytes, so 2f+1 of them are a
		// standard certificate that verifies like every other protocol's.
		cert := in.votes[2].Cert(r.View(), m.Seq, in.Digest, r.Cfg.Quorum())
		r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindDecide, Seq: m.Seq, Digest: m.Digest, Sig: qc, Certs: cert.Sigs})
		r.Decide(m.Seq, in, "decided", cert)
	}
}

func (r *Replica) onQC(from int, m *consensus.PhaseMsg) {
	if m.View != r.View() || !r.InView() || from != r.Leader() {
		return
	}
	// One threshold-signature verification regardless of cluster size.
	r.Host.Elapse(r.Cfg.SigVerify)
	in := r.Inst(m.Seq)
	if !in.Have {
		in.Digest, in.Have = m.Digest, true
	}
	if in.Digest != m.Digest || in.Decided {
		return
	}
	switch m.Kind {
	case kindPreCommit:
		r.vote(kindVotePre, 1, m.Seq, in)
	case kindCommit:
		in.locked = true
		r.vote(kindVoteCommit, 2, m.Seq, in)
	}
}

// --- pacemaker ----------------------------------------------------------
//
// Leaving a view, merging the collected entries, installing and entering the
// next view are the shared core's. What is HotStuff's own is that the
// pacemaker is linear, and these three functions are all of it: a replica
// sends its view-change message to the next leader only, so only that leader
// collects (and nobody else can count f+1 messages to join on), and a
// follower checks who announces a view before it pays for the signature.

// sendToNextLeader is the core's Announce.
func (r *Replica) sendToNextLeader(nv *consensus.ViewMsg) {
	if next := r.Cfg.Policy.Leader(nv.View); next == r.Cfg.Self {
		r.onNewView(next, nv)
	} else {
		r.Host.Send(next, nv)
	}
}

// onNewView collects view-change messages for a view this replica leads and
// installs it at 2f+1.
func (r *Replica) onNewView(from int, m *consensus.ViewMsg) {
	if m.View <= r.View() || r.Cfg.Policy.Leader(m.View) != r.Cfg.Self {
		return
	}
	if set := r.Collect(from, m); len(set) >= r.Cfg.Quorum() {
		r.Install(m.View, set)
	}
}

// onNewViewStart follows the new leader into its view.
func (r *Replica) onNewViewStart(from int, m *consensus.ViewMsg) {
	if !r.ExpectsNewView(from, m) {
		return
	}
	r.Host.Elapse(r.Cfg.SigVerify)
	r.AdoptNewView(from, m)
}
