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

// Msg is the wire type of the four normal-case rounds; the pacemaker's
// messages travel as consensus.ViewMsg.
type Msg struct {
	Kind   int
	View   uint64
	Seq    uint64
	Node   int
	Digest crypto.Digest
	Data   []byte
	Sig    crypto.Signature
	// QC carries the aggregate certificate on leader broadcasts.
	QC crypto.Signature
	// CertSigs carries the individual commit votes inside DECIDE so
	// downstream consumers get a standard 2f+1 certificate.
	CertSigs []types.NodeSig
}

// Size implements consensus.Msg.
func (m *Msg) Size() int {
	return 1 + 8 + 8 + 4 + 32 + len(m.Data) + len(m.Sig) + len(m.QC) + len(m.CertSigs)*(4+64)
}

type instance struct {
	consensus.Slot
	locked bool
	// leader-side vote tallies per phase
	votes [3]map[int]crypto.Signature
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
				in.votes[i] = make(map[int]crypto.Signature)
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

func (r *Replica) proposeAt(seq uint64, v consensus.Value) {
	in := r.Inst(seq)
	in.Digest, in.Data, in.Have = v.Digest, v.Data, true
	r.Host.Proposed(seq, v)
	r.Host.BroadcastCN(&Msg{Kind: kindPrepare, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: v.Digest, Data: v.Data})
	// Leader votes for itself in the prepare phase.
	r.ownVote(0, seq, in)
	r.ArmTimer()
}

// Step implements consensus.Replica.
func (r *Replica) Step(from int, m consensus.Msg) {
	switch msg := m.(type) {
	case *consensus.ViewMsg:
		if msg.NewView {
			r.onNewViewStart(from, msg)
		} else {
			r.onNewView(from, msg)
		}
	case *Msg:
		switch msg.Kind {
		case kindPrepare:
			r.onProposal(from, msg)
		case kindVotePrep, kindVotePre, kindVoteCommit:
			r.onVote(from, msg)
		case kindPreCommit, kindCommit:
			r.onQC(from, msg)
		case kindDecide:
			r.onDecide(from, msg)
		}
	}
}

func (r *Replica) onProposal(from int, m *Msg) {
	if m.View != r.View() || !r.InView() || from != r.Leader() {
		return
	}
	in := r.Inst(m.Seq)
	if in.Decided {
		return
	}
	if in.Have && in.Digest != m.Digest {
		// Equivocation: force a pacemaker round.
		r.RequestViewChange()
		return
	}
	in.Digest, in.Data, in.Have = m.Digest, m.Data, true
	r.Host.Proposed(m.Seq, consensus.Value{Digest: m.Digest, Data: m.Data})
	r.vote(kindVotePrep, 0, m.Seq, in)
	r.ArmTimer()
}

func (r *Replica) vote(kind, phaseIdx int, seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.SigSign)
	sig := r.Host.Sign(signBytes(phaseIdx, r.View(), seq, in.Digest))
	r.Host.Send(r.Leader(), &Msg{Kind: kind, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: in.Digest, Sig: sig})
}

// ownVote tallies the leader's own vote for a phase it just opened.
func (r *Replica) ownVote(phaseIdx int, seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.SigSign)
	in.votes[phaseIdx][r.Cfg.Self] = r.Host.Sign(signBytes(phaseIdx, r.View(), seq, in.Digest))
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

func (r *Replica) onVote(from int, m *Msg) {
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
	in.votes[p][from] = m.Sig
	if len(in.votes[p]) != r.Cfg.Quorum() {
		return
	}
	// Quorum reached: combine into a QC and advance the phase.
	r.Host.Elapse(r.Cfg.ThresholdCombine)
	qcDigest := crypto.Hash(voteBytes(p, m.View, m.Seq, m.Digest))
	qc := crypto.Signature(qcDigest[:])
	switch p {
	case 0:
		consensus.Phase(r.Host, "prepare-qc", r.View(), m.Seq)
		r.Host.BroadcastCN(&Msg{Kind: kindPreCommit, View: r.View(), Seq: m.Seq, Node: r.Cfg.Self, Digest: m.Digest, QC: qc})
		r.ownVote(1, m.Seq, in)
	case 1:
		consensus.Phase(r.Host, "precommit-qc", r.View(), m.Seq)
		r.Host.BroadcastCN(&Msg{Kind: kindCommit, View: r.View(), Seq: m.Seq, Node: r.Cfg.Self, Digest: m.Digest, QC: qc})
		in.locked = true
		r.ownVote(2, m.Seq, in)
	case 2:
		// Commit votes sign types.CertSigningBytes, so 2f+1 of them are a
		// standard certificate that verifies like every other protocol's.
		cert := consensus.BuildCert(r.View(), m.Seq, in.Digest, in.votes[2], r.Cfg.Quorum())
		r.Host.BroadcastCN(&Msg{Kind: kindDecide, View: r.View(), Seq: m.Seq, Node: r.Cfg.Self, Digest: m.Digest, QC: qc, CertSigs: cert.Sigs})
		r.Decide(m.Seq, in, "decided", cert)
	}
}

func (r *Replica) onQC(from int, m *Msg) {
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

func (r *Replica) onDecide(from int, m *Msg) {
	if !r.InView() || from != r.Cfg.Policy.Leader(m.View) {
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
	r.Decide(m.Seq, in, "decided", &types.Certificate{View: m.View, Number: m.Seq, Digest: m.Digest, Sigs: m.CertSigs})
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
