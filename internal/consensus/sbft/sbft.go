// Package sbft implements an SBFT-style linear BFT protocol: replicas send
// threshold-signature shares to c+1 collectors (default c=1, §6), a
// collector combines a quorum of shares into a single commit proof and
// broadcasts it, and replicas verify one aggregate signature regardless of
// cluster size. The fast path combines 3f+1 shares; if the fast quorum does
// not form before a timeout, the collector falls back to a 2f+1 proof.
//
// Redundant collectors make the protocol robust to a crashed collector;
// duplicate proofs are deduplicated by the decided flag.
package sbft

import (
	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
)

// Message kinds.
const (
	kindPrePrepare  = iota // leader → all
	kindShare              // replica → collectors
	kindCommitProof        // collector → all
)

type instance struct {
	consensus.Slot
	shares   consensus.Votes
	fallback bool
}

// Replica is one SBFT consensus node: the collector-based normal case on the
// shared replica core.
type Replica struct {
	consensus.Core[*instance]
	collectors int // c+1
}

// New creates an SBFT replica with the paper's default c=1 (two collectors).
func New(cfg consensus.Config, host consensus.Host) *Replica {
	return NewWithCollectors(cfg, host, 2)
}

// NewWithCollectors creates an SBFT replica with an explicit collector count.
func NewWithCollectors(cfg consensus.Config, host consensus.Host, collectors int) *Replica {
	if collectors < 1 {
		collectors = 1
	}
	if collectors > cfg.N {
		collectors = cfg.N
	}
	r := &Replica{collectors: collectors}
	r.Init(cfg, host, consensus.Protocol[*instance]{
		NewInstance: func() *instance { return &instance{shares: consensus.NewVotes(cfg.N)} },
		ProposeAt:   r.proposeAt,
		Rank:        consensus.RankUndecided[*instance],
		Supersedes:  consensus.HigherRank,
		Announce:    r.Broadcast,
	})
	return r
}

// isCollector reports whether node idx collects shares in the current view.
func (r *Replica) isCollector(idx int) bool {
	leader := r.Leader()
	for i := 0; i < r.collectors; i++ {
		if (leader+i)%r.Cfg.N == idx {
			return true
		}
	}
	return false
}

func (r *Replica) proposeAt(seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.MACCompute)
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindPrePrepare, Seq: seq, Digest: in.Digest, Data: in.Data})
	r.sendShare(seq, in)
}

// sendShare signs a threshold share and routes it to every collector.
func (r *Replica) sendShare(seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.ThresholdSign)
	sig := r.SignCert(seq, in.Digest)
	for i := 0; i < r.collectors; i++ {
		collector := (r.Leader() + i) % r.Cfg.N
		if collector == r.Cfg.Self {
			r.acceptShare(r.Cfg.Self, seq, in, sig)
		} else {
			r.SendPhase(collector, &consensus.PhaseMsg{Kind: kindShare, Seq: seq, Digest: in.Digest, Sig: sig})
		}
	}
}

// Step implements consensus.Replica.
func (r *Replica) Step(from int, m consensus.Msg) {
	msg, ok := m.(*consensus.PhaseMsg)
	if !ok {
		r.StepView(from, m)
		return
	}
	switch msg.Kind {
	case kindPrePrepare:
		r.Host.Elapse(r.Cfg.MACVerify)
		if in, ok := r.Accept(from, msg); ok {
			r.sendShare(msg.Seq, in)
			r.ArmTimer()
		}
	case kindShare:
		r.onShare(from, msg)
	case kindCommitProof:
		// A single aggregate verification regardless of cluster size:
		// SBFT's headline property.
		r.Host.Elapse(r.Cfg.SigVerify)
		r.DecideCert(msg)
	}
}

func (r *Replica) onShare(from int, m *consensus.PhaseMsg) {
	if m.View != r.View() || !r.InView() || !r.isCollector(r.Cfg.Self) {
		return
	}
	// Share verification is cheap relative to combination; charge a MAC.
	r.Host.Elapse(r.Cfg.MACVerify)
	if !r.SignedBy(from, m) {
		return
	}
	in := r.Inst(m.Seq)
	if !in.Have || in.Digest != m.Digest {
		return
	}
	r.acceptShare(from, m.Seq, in, m.Sig)
}

func (r *Replica) acceptShare(from int, seq uint64, in *instance, sig crypto.Signature) {
	if in.Decided {
		return
	}
	in.shares.Add(from, sig)
	if in.shares.Len() >= r.Cfg.FastQuorum() {
		r.emitProof(seq, in, r.Cfg.FastQuorum())
		return
	}
	if in.shares.Len() == r.Cfg.Quorum() && !in.fallback {
		in.fallback = true
		r.AfterInEpoch(r.Cfg.FastPathWait(), func() {
			if !in.Decided && in.shares.Len() < r.Cfg.FastQuorum() {
				r.emitProof(seq, in, r.Cfg.Quorum())
			}
		})
	}
}

// emitProof combines shares into one aggregate proof and broadcasts it.
func (r *Replica) emitProof(seq uint64, in *instance, limit int) {
	r.Host.ConsensusPhase("proof", r.View(), seq)
	r.Host.Elapse(r.Cfg.ThresholdCombine)
	cert := in.shares.Cert(r.View(), seq, in.Digest, limit)
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindCommitProof, Seq: seq, Digest: in.Digest, Data: in.Data, Certs: cert.Sigs})
	r.Decide(seq, in, "decided", cert)
}
