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
)

// Message kinds.
const (
	kindPrePrepare = iota
	kindPrepare
	kindCommit
)

const macSize = 32

type instance struct {
	consensus.Slot
	prepares consensus.Votes // unsigned: MAC-authenticated
	commits  consensus.Votes
	// early holds the signed commits that came before the proposal, with
	// their senders: the proposal's digest decides which of them count.
	early    []earlyCommit
	sentPrep bool
	sentComm bool
}

type earlyCommit struct {
	from int
	m    *consensus.PhaseMsg
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

// proposeAt broadcasts the pre-prepare for the proposal at seq.
func (r *Replica) proposeAt(seq uint64, in *instance) {
	r.Host.ConsensusPhase("pre-prepare", r.View(), seq)
	r.Host.Elapse(r.Cfg.MACCompute) // authenticate the pre-prepare
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindPrePrepare, Seq: seq, Digest: in.Digest, Data: in.Data})
	r.countEarly(in)
	// The leader's own prepare is implicit in the pre-prepare.
	in.prepares.Add(r.Cfg.Self, nil)
	in.sentPrep = true
	r.maybePrepared(seq, in)
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
	sig := r.SignCert(seq, d)
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindCommit, Seq: seq, Digest: d, Sig: sig})
	return sig
}

func (r *Replica) sendPrepare(seq uint64, d crypto.Digest) {
	r.Host.Elapse(r.Cfg.MACCompute)
	r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindPrepare, Seq: seq, Digest: d})
}

func (r *Replica) onPrePrepare(from int, m *consensus.PhaseMsg) {
	r.Host.Elapse(r.Cfg.MACVerify)
	in, ok := r.Accept(from, m)
	if !ok {
		if in != nil && in.Decided && in.Digest == m.Digest {
			// Help peers that lost this decision across a view change:
			// re-sign a commit in the current view.
			r.sendCommit(m.Seq, m.Digest)
		}
		return
	}
	r.countEarly(in)
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

func (r *Replica) onPrepare(from int, m *consensus.PhaseMsg) {
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

func (r *Replica) onCommit(from int, m *consensus.PhaseMsg) {
	r.Host.Elapse(r.Cfg.SigVerify)
	if m.View != r.View() || !r.InView() || !r.SignedBy(from, m) {
		return
	}
	in := r.Inst(m.Seq)
	switch {
	case !in.Have:
		in.early = append(in.early, earlyCommit{from, m})
	case in.Digest == m.Digest:
		in.commits.Add(from, m.Sig)
		r.maybeDecide(m.Seq, in)
	}
}

// countEarly tallies the early commits for the digest just proposed.
func (r *Replica) countEarly(in *instance) {
	for _, e := range in.early {
		if e.m.Digest == in.Digest {
			in.commits.Add(e.from, e.m.Sig)
		}
	}
	in.early = nil
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
		r.BroadcastPhase(&consensus.PhaseMsg{Kind: kindPrePrepare, Seq: seq, Digest: in.Digest, Data: in.Data})
		if sent++; sent >= maxResend {
			break
		}
	}
}
