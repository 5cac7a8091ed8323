// Package pbft implements a PBFT-style three-phase BFT protocol
// (pre-prepare → prepare → commit) with view changes, standing in for
// BFT-SMaRt, the paper's default consensus protocol (§6).
//
// Phase messages are MAC-authenticated (BFT-SMaRt style) except commits,
// which are signed so that 2f+1 of them form the block certificate normal
// nodes verify (Algo 2 line 9).
package pbft

import (
	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// Message kinds.
const (
	kindPrePrepare = iota
	kindPrepare
	kindCommit
)

// Msg is the wire type of the three normal-case phases; view changes travel
// as consensus.ViewMsg.
type Msg struct {
	Kind   int
	View   uint64
	Seq    uint64
	Node   int
	Digest crypto.Digest
	// Data carries the proposal payload on pre-prepares.
	Data []byte
	// Sig authenticates commit messages.
	Sig crypto.Signature

	// sigOK memoises the commit signature check per signer: a commit is one
	// object broadcast to every replica, and its fields are final once sent.
	sigOK crypto.Verdict
}

const macSize = 32

// Size implements consensus.Msg.
func (m *Msg) Size() int {
	return 1 + 8 + 8 + 4 + 32 + len(m.Data) + len(m.Sig) + macSize
}

type instance struct {
	consensus.Slot
	prepares consensus.Votes // unsigned: MAC-authenticated
	commits  consensus.Votes
	sentPrep bool
	sentComm bool
}

// Ranks of view-change entries. A prepared entry (2f+1 prepares, or decided)
// may have been decided somewhere, so the new leader must re-propose it; one
// that only reached pre-prepare cannot have been, and is re-proposed when no
// prepared entry exists for its sequence so that in-flight proposals are not
// lost.
const (
	prePrepared = 1
	prepared    = 2
)

// Replica is one PBFT consensus node: the three-phase normal case on the
// shared replica core.
type Replica struct {
	consensus.Core[*instance]
}

// New creates a PBFT replica.
func New(cfg consensus.Config, host consensus.Host) *Replica {
	r := &Replica{}
	r.Init(cfg, host, consensus.Protocol[*instance]{
		NewInstance: func() *instance {
			return &instance{prepares: consensus.NewVotes(cfg.N), commits: consensus.NewVotes(cfg.N)}
		},
		ProposeAt: r.proposeAt,
		Rank:      r.rank,
		// Any prepared entry replaces what is held; a pre-prepared one only
		// fills a sequence nobody reported yet.
		Supersedes: func(rank, _ int) bool { return rank == prepared },
		Announce:   r.Broadcast,
		Wire:       consensus.Wire{Msg: macSize},
		FillHoles:  r.fillHoles,
		Stalled:    r.retransmitStalled,
	})
	return r
}

// proposeAt broadcasts the pre-prepare for v at seq.
func (r *Replica) proposeAt(seq uint64, v consensus.Value) {
	in := r.Inst(seq)
	in.Digest, in.Data, in.Have = v.Digest, v.Data, true
	r.Host.Proposed(seq, v)
	r.Host.ConsensusPhase("pre-prepare", r.View(), seq)
	r.Host.Elapse(r.Cfg.MACCompute) // authenticate the pre-prepare
	r.Host.BroadcastCN(&Msg{Kind: kindPrePrepare, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: v.Digest, Data: v.Data})
	// The leader's own prepare is implicit in the pre-prepare.
	in.prepares.Add(r.Cfg.Self, nil)
	in.sentPrep = true
	r.maybePrepared(seq, in)
	r.ArmTimer()
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
	case kindPrepare:
		r.onPrepare(from, msg)
	case kindCommit:
		r.onCommit(from, msg)
	}
}

// sendCommit signs and broadcasts this replica's commit for (seq, digest) in
// the current view.
func (r *Replica) sendCommit(seq uint64, d crypto.Digest) crypto.Signature {
	r.Host.Elapse(r.Cfg.SigSign)
	sig := r.Host.Sign(types.CertSigningBytes(r.View(), seq, d))
	r.Host.BroadcastCN(&Msg{Kind: kindCommit, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: d, Sig: sig})
	return sig
}

func (r *Replica) sendPrepare(seq uint64, d crypto.Digest) {
	r.Host.Elapse(r.Cfg.MACCompute)
	r.Host.BroadcastCN(&Msg{Kind: kindPrepare, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: d})
}

func (r *Replica) onPrePrepare(from int, m *Msg) {
	r.Host.Elapse(r.Cfg.MACVerify)
	if m.View != r.View() || !r.InView() || from != r.Leader() {
		return
	}
	in := r.Inst(m.Seq)
	if in.Decided {
		if in.Digest == m.Digest {
			// Help peers that lost this decision across a view change:
			// re-sign a commit in the current view.
			r.sendCommit(m.Seq, m.Digest)
		}
		return
	}
	if in.Have && in.Digest != m.Digest {
		// Equivocating leader: trigger a view change.
		r.RequestViewChange()
		return
	}
	in.Digest, in.Data, in.Have = m.Digest, m.Data, true
	r.Host.Proposed(m.Seq, consensus.Value{Digest: m.Digest, Data: m.Data})
	// The leader's pre-prepare doubles as its prepare.
	in.prepares.Add(from, nil)
	if !in.sentPrep {
		in.sentPrep = true
		r.sendPrepare(m.Seq, m.Digest)
		in.prepares.Add(r.Cfg.Self, nil)
	} else if in.sentComm {
		// A duplicate pre-prepare is the leader re-driving a stalled
		// instance (retransmit path): our earlier prepare or commit may
		// have been lost, so re-send the latest phase message we hold.
		r.sendCommit(m.Seq, m.Digest)
	} else {
		r.sendPrepare(m.Seq, m.Digest)
	}
	r.maybePrepared(m.Seq, in)
	r.ArmTimer()
}

func (r *Replica) onPrepare(from int, m *Msg) {
	r.Host.Elapse(r.Cfg.MACVerify)
	if m.View != r.View() || !r.InView() {
		return
	}
	in := r.Inst(m.Seq)
	if in.Have && in.Digest != m.Digest {
		return
	}
	in.prepares.Add(from, nil)
	r.maybePrepared(m.Seq, in)
}

// maybePrepared sends a commit once the instance has a pre-prepare and a
// 2f+1 prepare quorum.
func (r *Replica) maybePrepared(seq uint64, in *instance) {
	if !in.Have || in.sentComm || in.prepares.Len() < r.Cfg.Quorum() {
		return
	}
	in.sentComm = true
	r.Host.ConsensusPhase("prepared", r.View(), seq)
	in.commits.Add(r.Cfg.Self, r.sendCommit(seq, in.Digest))
	r.maybeDecide(seq, in)
}

func (r *Replica) onCommit(from int, m *Msg) {
	r.Host.Elapse(r.Cfg.SigVerify)
	if m.View != r.View() || !r.InView() {
		return
	}
	if !m.sigOK.Check(uint32(from), func() bool {
		return r.Host.VerifyNode(from, types.CertSigningBytes(m.View, m.Seq, m.Digest), m.Sig)
	}) {
		return
	}
	in := r.Inst(m.Seq)
	if in.Have && in.Digest != m.Digest {
		return
	}
	in.commits.Add(from, m.Sig)
	r.maybeDecide(m.Seq, in)
}

func (r *Replica) maybeDecide(seq uint64, in *instance) {
	if in.Decided || !in.Have || !in.sentComm || in.commits.Len() < r.Cfg.Quorum() {
		return
	}
	r.Decide(seq, in, "committed", in.commits.Cert(r.View(), seq, in.Digest, r.Cfg.Quorum()))
}

// --- what pbft adds to the shared view change --------------------------------

func (r *Replica) rank(in *instance) int {
	switch {
	case !in.Have:
		return 0
	// A decided instance was necessarily prepared, so it belongs in the
	// P-set (PBFT §4.4): any sequence committed at a correct node then
	// appears in at least one of the 2f+1 view-change messages (quorum
	// intersection), which is what makes fillHoles safe.
	case in.Decided || in.prepares.Len() >= r.Cfg.Quorum():
		return prepared
	default:
		return prePrepared
	}
}

// fillHoles null-fills sequence holes (PBFT's new-view rule): a sequence
// absent from every collected P-set was never committed anywhere, but hosts
// deliver blocks strictly in sequence order, so an unfilled hole wedges the
// chain forever. A zero-digest, nil-data entry is the no-op request hosts
// skip over on delivery.
func (r *Replica) fillHoles(reprop map[uint64]consensus.Entry) {
	var base uint64
	for r.Decided(base) {
		base++
	}
	top := base
	for seq := range reprop {
		if seq >= top {
			top = seq + 1
		}
	}
	for seq, in := range r.Instances {
		if in.Decided && seq >= top {
			top = seq + 1
		}
	}
	for seq := base; seq < top; seq++ {
		if _, ok := reprop[seq]; !ok && !r.Decided(seq) {
			reprop[seq] = consensus.Entry{Seq: seq}
		}
	}
}

// retransmitStalled re-drives the oldest undecided instances on the leader:
// a pre-prepare (or the phase messages it regenerates at the replicas) lost
// to the network would otherwise stall its sequence forever while newer
// sequences keep deciding, wedging in-order block delivery at the hole.
func (r *Replica) retransmitStalled() {
	if !r.IsLeader() {
		return
	}
	const maxResend = 8
	sent := 0
	for _, seq := range consensus.SortedSeqs(r.Instances) {
		in := r.Instances[seq]
		if !in.InFlight() {
			continue
		}
		r.Host.Elapse(r.Cfg.MACCompute)
		r.Host.BroadcastCN(&Msg{Kind: kindPrePrepare, View: r.View(), Seq: seq, Node: r.Cfg.Self, Digest: in.Digest, Data: in.Data})
		if sent++; sent >= maxResend {
			break
		}
	}
}
