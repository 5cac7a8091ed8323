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
	"github.com/bidl-framework/bidl/internal/types"
)

// Message kinds.
const (
	kindPrePrepare  = iota // leader → all
	kindShare              // replica → collectors
	kindCommitProof        // collector → all
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
	shares   map[int]crypto.Signature
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
		NewInstance: func() *instance { return &instance{shares: make(map[int]crypto.Signature)} },
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

func (r *Replica) proposeAt(seq uint64, v consensus.Value) {
	in := r.Inst(seq)
	in.Digest, in.Data, in.Have = v.Digest, v.Data, true
	r.Host.Proposed(seq, v)
	r.Host.Elapse(r.Cfg.MACCompute)
	r.Host.BroadcastCN(&Msg{Kind: kindPrePrepare, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: v.Digest, Data: v.Data})
	r.sendShare(seq, in)
	r.ArmTimer()
}

// sendShare signs a threshold share and routes it to every collector.
func (r *Replica) sendShare(seq uint64, in *instance) {
	r.Host.Elapse(r.Cfg.ThresholdSign)
	sig := r.Host.Sign(types.CertSigningBytes(r.View(), seq, in.Digest))
	for i := 0; i < r.collectors; i++ {
		collector := (r.Leader() + i) % r.Cfg.N
		if collector == r.Cfg.Self {
			r.acceptShare(r.Cfg.Self, seq, in, sig)
		} else {
			r.Host.Send(collector, &Msg{Kind: kindShare, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: in.Digest, Sig: sig})
		}
	}
}

// Step implements consensus.Replica.
func (r *Replica) Step(from int, m consensus.Msg) {
	msg, ok := m.(*Msg)
	if !ok {
		r.StepView(from, m)
		return
	}
	switch msg.Kind {
	case kindPrePrepare:
		r.onPrePrepare(from, msg)
	case kindShare:
		r.onShare(from, msg)
	case kindCommitProof:
		r.onCommitProof(from, msg)
	}
}

func (r *Replica) onPrePrepare(from int, m *Msg) {
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
	r.sendShare(m.Seq, in)
	r.ArmTimer()
}

func (r *Replica) onShare(from int, m *Msg) {
	if m.View != r.View() || !r.InView() || !r.isCollector(r.Cfg.Self) {
		return
	}
	// Share verification is cheap relative to combination; charge a MAC.
	r.Host.Elapse(r.Cfg.MACVerify)
	if !r.Host.VerifyNode(from, types.CertSigningBytes(m.View, m.Seq, m.Digest), m.Sig) {
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
	in.shares[from] = sig
	if len(in.shares) >= r.Cfg.FastQuorum() {
		r.emitProof(seq, in, r.Cfg.FastQuorum())
		return
	}
	if len(in.shares) == r.Cfg.Quorum() && !in.fallback {
		in.fallback = true
		r.AfterInEpoch(r.Cfg.FastPathWait(), func() {
			if !in.Decided && len(in.shares) < r.Cfg.FastQuorum() {
				r.emitProof(seq, in, r.Cfg.Quorum())
			}
		})
	}
}

// emitProof combines shares into one aggregate proof and broadcasts it.
func (r *Replica) emitProof(seq uint64, in *instance, limit int) {
	consensus.Phase(r.Host, "proof", r.View(), seq)
	r.Host.Elapse(r.Cfg.ThresholdCombine)
	cert := consensus.BuildCert(r.View(), seq, in.Digest, in.shares, limit)
	r.Host.BroadcastCN(&Msg{Kind: kindCommitProof, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: in.Digest, Data: in.Data, Certs: cert.Sigs})
	r.Decide(seq, in, "decided", cert)
}

func (r *Replica) onCommitProof(from int, m *Msg) {
	// A single aggregate verification regardless of cluster size: SBFT's
	// headline property.
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
