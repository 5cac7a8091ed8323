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
	kindViewChange
	kindNewView
)

// Msg is the single wire type for all PBFT messages.
type Msg struct {
	Kind   int
	View   uint64
	Seq    uint64
	Node   int
	Digest crypto.Digest
	// Data carries the proposal payload on pre-prepares.
	Data []byte
	// Sig authenticates commit and view-change messages.
	Sig crypto.Signature
	// Meta is the host's piggybacked view-change payload (denylist votes).
	Meta []byte
	// Prepared carries prepared-instance summaries inside view changes so
	// the new leader can re-propose them; PrePrepared carries instances
	// that only reached pre-prepare, re-proposed when no prepared entry
	// exists for the sequence (safe: an undecidable-prepared seq cannot
	// have been decided anywhere).
	Prepared    []PreparedEntry
	PrePrepared []PreparedEntry

	// sigOK memoises the commit signature check per signer: a commit is one
	// object broadcast to every replica, and its fields are final once sent.
	sigOK crypto.Verdict
}

// PreparedEntry summarizes an instance that reached prepared state.
type PreparedEntry struct {
	Seq    uint64
	Digest crypto.Digest
	Data   []byte
}

// Size implements consensus.Msg.
func (m *Msg) Size() int {
	n := 1 + 8 + 8 + 4 + 32 + len(m.Data) + len(m.Sig) + len(m.Meta) + 32 /* MAC */
	for _, p := range m.Prepared {
		n += 8 + 32 + len(p.Data)
	}
	for _, p := range m.PrePrepared {
		n += 8 + 32 + len(p.Data)
	}
	return n
}

type instance struct {
	digest   crypto.Digest
	data     []byte
	havePP   bool
	prepares map[int]bool
	commits  map[int]crypto.Signature
	sentPrep bool
	sentComm bool
	decided  bool
}

// Replica is one PBFT consensus node.
type Replica struct {
	cfg  consensus.Config
	host consensus.Host

	view       uint64
	inView     bool // false while a view change is in progress
	nextSeq    uint64
	minSeq     uint64 // sequences below this are decided/garbage
	instances  map[uint64]*instance
	pending    []consensus.Value // proposals waiting for leadership
	vcs        map[uint64]map[int]*Msg
	timerArmed bool
	timerEpoch uint64 // invalidates stale timers
	decidedCnt uint64
}

// New creates a PBFT replica.
func New(cfg consensus.Config, host consensus.Host) *Replica {
	return &Replica{
		cfg:       cfg,
		host:      host,
		inView:    true,
		instances: make(map[uint64]*instance),
		vcs:       make(map[uint64]map[int]*Msg),
	}
}

// Name returns the protocol name.
func (r *Replica) Name() string { return "pbft" }

// View implements consensus.Replica.
func (r *Replica) View() uint64 { return r.view }

// Leader implements consensus.Replica.
func (r *Replica) Leader() int { return r.cfg.Policy.Leader(r.view) }

// IsLeader implements consensus.Replica.
func (r *Replica) IsLeader() bool { return r.Leader() == r.cfg.Self }

// Start implements consensus.Replica.
func (r *Replica) Start() {}

func (r *Replica) inst(seq uint64) *instance {
	in, ok := r.instances[seq]
	if !ok {
		in = &instance{prepares: make(map[int]bool), commits: make(map[int]crypto.Signature)}
		r.instances[seq] = in
	}
	return in
}

// Propose implements consensus.Replica. On the leader it assigns the next
// sequence and broadcasts a pre-prepare; on followers it queues until this
// replica leads (the host normally routes proposals to the leader anyway).
func (r *Replica) Propose(v consensus.Value) {
	if !r.IsLeader() || !r.inView {
		r.pending = append(r.pending, v)
		return
	}
	r.proposeAt(r.nextSeq, v)
	r.nextSeq++
}

func (r *Replica) proposeAt(seq uint64, v consensus.Value) {
	in := r.inst(seq)
	in.digest, in.data, in.havePP = v.Digest, v.Data, true
	r.host.Proposed(seq, v)
	consensus.Phase(r.host, "pre-prepare", r.view, seq)
	r.host.Elapse(r.cfg.MACCompute) // authenticate the pre-prepare
	r.host.BroadcastCN(&Msg{Kind: kindPrePrepare, View: r.view, Seq: seq, Node: r.cfg.Self, Digest: v.Digest, Data: v.Data})
	// The leader's own prepare is implicit in the pre-prepare.
	in.prepares[r.cfg.Self] = true
	in.sentPrep = true
	r.maybePrepared(seq, in)
	r.armTimer()
}

// Step implements consensus.Replica.
func (r *Replica) Step(from int, m consensus.Msg) {
	msg, ok := m.(*Msg)
	if !ok {
		return
	}
	switch msg.Kind {
	case kindPrePrepare:
		r.onPrePrepare(from, msg)
	case kindPrepare:
		r.onPrepare(from, msg)
	case kindCommit:
		r.onCommit(from, msg)
	case kindViewChange:
		r.onViewChange(from, msg)
	case kindNewView:
		r.onNewView(from, msg)
	}
}

func (r *Replica) onPrePrepare(from int, m *Msg) {
	r.host.Elapse(r.cfg.MACVerify)
	if m.View != r.view || !r.inView || from != r.Leader() || m.Seq < r.minSeq {
		return
	}
	in := r.inst(m.Seq)
	if in.decided {
		if in.digest == m.Digest {
			// Help peers that lost this decision across a view change:
			// re-sign a commit in the current view.
			r.host.Elapse(r.cfg.SigSign)
			sig := r.host.Sign(types.CertSigningBytes(r.view, m.Seq, m.Digest))
			r.host.BroadcastCN(&Msg{Kind: kindCommit, View: r.view, Seq: m.Seq, Node: r.cfg.Self, Digest: m.Digest, Sig: sig})
		}
		return
	}
	if in.havePP && in.digest != m.Digest {
		// Equivocating leader: trigger a view change.
		r.RequestViewChange()
		return
	}
	in.digest, in.data, in.havePP = m.Digest, m.Data, true
	r.host.Proposed(m.Seq, consensus.Value{Digest: m.Digest, Data: m.Data})
	// The leader's pre-prepare doubles as its prepare.
	in.prepares[from] = true
	if !in.sentPrep {
		in.sentPrep = true
		r.host.Elapse(r.cfg.MACCompute)
		r.host.BroadcastCN(&Msg{Kind: kindPrepare, View: r.view, Seq: m.Seq, Node: r.cfg.Self, Digest: m.Digest})
		in.prepares[r.cfg.Self] = true
	} else if !in.decided {
		// A duplicate pre-prepare is the leader re-driving a stalled
		// instance (retransmit path): our earlier prepare or commit may
		// have been lost, so re-send the latest phase message we hold.
		if in.sentComm {
			r.host.Elapse(r.cfg.SigSign)
			sig := r.host.Sign(types.CertSigningBytes(r.view, m.Seq, m.Digest))
			r.host.BroadcastCN(&Msg{Kind: kindCommit, View: r.view, Seq: m.Seq, Node: r.cfg.Self, Digest: m.Digest, Sig: sig})
		} else {
			r.host.Elapse(r.cfg.MACCompute)
			r.host.BroadcastCN(&Msg{Kind: kindPrepare, View: r.view, Seq: m.Seq, Node: r.cfg.Self, Digest: m.Digest})
		}
	}
	r.maybePrepared(m.Seq, in)
	r.armTimer()
}

func (r *Replica) onPrepare(from int, m *Msg) {
	r.host.Elapse(r.cfg.MACVerify)
	if m.View != r.view || !r.inView || m.Seq < r.minSeq {
		return
	}
	in := r.inst(m.Seq)
	if in.havePP && in.digest != m.Digest {
		return
	}
	in.prepares[from] = true
	r.maybePrepared(m.Seq, in)
}

// maybePrepared sends a commit once the instance has a pre-prepare and a
// 2f+1 prepare quorum.
func (r *Replica) maybePrepared(seq uint64, in *instance) {
	if !in.havePP || in.sentComm || len(in.prepares) < r.cfg.Quorum() {
		return
	}
	in.sentComm = true
	consensus.Phase(r.host, "prepared", r.view, seq)
	r.host.Elapse(r.cfg.SigSign)
	sig := r.host.Sign(types.CertSigningBytes(r.view, seq, in.digest))
	in.commits[r.cfg.Self] = sig
	r.host.BroadcastCN(&Msg{Kind: kindCommit, View: r.view, Seq: seq, Node: r.cfg.Self, Digest: in.digest, Sig: sig})
	r.maybeDecide(seq, in)
}

func (r *Replica) onCommit(from int, m *Msg) {
	r.host.Elapse(r.cfg.SigVerify)
	if m.View != r.view || !r.inView || m.Seq < r.minSeq {
		return
	}
	if !m.sigOK.Check(uint32(from), func() bool {
		return r.host.VerifyNode(from, types.CertSigningBytes(m.View, m.Seq, m.Digest), m.Sig)
	}) {
		return
	}
	in := r.inst(m.Seq)
	if in.havePP && in.digest != m.Digest {
		return
	}
	in.commits[from] = m.Sig
	r.maybeDecide(m.Seq, in)
}

func (r *Replica) maybeDecide(seq uint64, in *instance) {
	if in.decided || !in.havePP || !in.sentComm || len(in.commits) < r.cfg.Quorum() {
		return
	}
	in.decided = true
	r.decidedCnt++
	consensus.Phase(r.host, "committed", r.view, seq)
	cert := &types.Certificate{View: r.view, Number: seq, Digest: in.digest}
	for _, node := range consensus.SortedNodes(in.commits) {
		cert.Sigs = append(cert.Sigs, types.NodeSig{Node: node, Sig: in.commits[node]})
		if len(cert.Sigs) == r.cfg.Quorum() {
			break
		}
	}
	r.host.Deliver(seq, consensus.Value{Digest: in.digest, Data: in.data}, cert)
	r.resetTimerIfProgress()
}

// --- view changes -----------------------------------------------------

// RequestViewChange implements consensus.Replica: abandon the current view.
func (r *Replica) RequestViewChange() {
	r.startViewChange(r.view + 1)
}

func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view && !r.inView {
		return
	}
	r.inView = false
	r.timerEpoch++
	var prepared, preprepared []PreparedEntry
	for _, seq := range consensus.SortedSeqs(r.instances) {
		in := r.instances[seq]
		if !in.havePP {
			continue
		}
		entry := PreparedEntry{Seq: seq, Digest: in.digest, Data: in.data}
		// A decided instance was necessarily prepared, so it belongs in
		// the P-set (PBFT §4.4): any sequence committed at a correct node
		// then appears in at least one of the 2f+1 view-change messages
		// (quorum intersection), which is what makes the new leader's
		// null-filling of absent sequences safe.
		if in.decided || len(in.prepares) >= r.cfg.Quorum() {
			prepared = append(prepared, entry)
		} else {
			preprepared = append(preprepared, entry)
		}
	}
	r.host.Elapse(r.cfg.SigSign)
	vc := &Msg{
		Kind: kindViewChange, View: newView, Node: r.cfg.Self,
		Meta: r.host.ViewChangeMeta(), Prepared: prepared, PrePrepared: preprepared,
	}
	vc.Sig = r.host.Sign(vcSigningBytes(vc))
	r.host.BroadcastCN(vc)
	r.onViewChange(r.cfg.Self, vc)
	// If the new view also stalls, escalate further.
	epoch := r.timerEpoch
	r.host.After(r.cfg.ViewTimeout, func() {
		if r.timerEpoch == epoch && !r.inView {
			r.startViewChange(newView + 1)
		}
	})
}

func vcSigningBytes(m *Msg) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(m.Kind))
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(m.View>>(8*(7-i))))
	}
	buf = append(buf, byte(m.Node))
	buf = append(buf, m.Meta...)
	for _, p := range m.Prepared {
		buf = append(buf, p.Digest[:]...)
	}
	for _, p := range m.PrePrepared {
		buf = append(buf, p.Digest[:]...)
	}
	return buf
}

func (r *Replica) onViewChange(from int, m *Msg) {
	if m.View <= r.view {
		return
	}
	if from != r.cfg.Self {
		r.host.Elapse(r.cfg.SigVerify)
		if !r.host.VerifyNode(from, vcSigningBytes(m), m.Sig) {
			return
		}
	}
	set, ok := r.vcs[m.View]
	if !ok {
		set = make(map[int]*Msg)
		r.vcs[m.View] = set
	}
	set[from] = m

	// f+1 view changes for a higher view: join even without a local
	// trigger (PBFT's liveness rule).
	if len(set) == r.cfg.F+1 && r.inView {
		if _, mine := set[r.cfg.Self]; !mine {
			r.startViewChange(m.View)
		}
	}
	// 2f+1: the new leader installs the view.
	if len(set) >= r.cfg.Quorum() && r.cfg.Policy.Leader(m.View) == r.cfg.Self {
		r.installNewView(m.View, set)
	}
}

func (r *Replica) installNewView(view uint64, set map[int]*Msg) {
	if r.view >= view && r.inView {
		return
	}
	// Collect instances to re-propose: prepared entries take precedence
	// (a decided seq is prepared at every quorum intersection); merely
	// pre-prepared values fill remaining sequences so in-flight proposals
	// are not lost.
	reprop := make(map[uint64]PreparedEntry)
	var metas [][]byte
	nodes := consensus.SortedNodes(set)
	for _, id := range nodes {
		vc := set[id]
		metas = append(metas, vc.Meta)
		for _, p := range vc.Prepared {
			reprop[p.Seq] = p
		}
	}
	for _, id := range nodes {
		for _, p := range set[id].PrePrepared {
			if _, ok := reprop[p.Seq]; !ok {
				reprop[p.Seq] = p
			}
		}
	}
	// Null-fill sequence holes (PBFT's new-view rule): a sequence absent
	// from every collected P-set was never committed anywhere, but hosts
	// deliver blocks strictly in sequence order, so an unfilled hole
	// wedges the chain forever. A zero-digest, nil-data entry is the
	// no-op request hosts skip over on delivery.
	base := r.minSeq
	for {
		if in, ok := r.instances[base]; ok && in.decided {
			base++
			continue
		}
		break
	}
	top := base
	for seq := range reprop {
		if seq >= top {
			top = seq + 1
		}
	}
	for seq, in := range r.instances {
		if in.decided && seq >= top {
			top = seq + 1
		}
	}
	for seq := base; seq < top; seq++ {
		if _, ok := reprop[seq]; ok {
			continue
		}
		if in, ok := r.instances[seq]; ok && in.decided {
			continue
		}
		reprop[seq] = PreparedEntry{Seq: seq}
	}
	r.host.Elapse(r.cfg.SigSign)
	nv := &Msg{Kind: kindNewView, View: view, Node: r.cfg.Self}
	nv.Sig = r.host.Sign(vcSigningBytes(nv))
	r.host.BroadcastCN(nv)
	r.enterView(view, metas)
	// Re-propose prepared-but-undecided instances in the new view.
	for _, seq := range consensus.SortedSeqs(reprop) {
		p := reprop[seq]
		if in, ok := r.instances[seq]; ok && in.decided {
			continue
		}
		r.instances[seq] = &instance{prepares: make(map[int]bool), commits: make(map[int]crypto.Signature)}
		r.proposeAt(seq, consensus.Value{Digest: p.Digest, Data: p.Data})
		if seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
	}
	// Flush host proposals queued during the change.
	pend := r.pending
	r.pending = nil
	for _, v := range pend {
		r.Propose(v)
	}
}

func (r *Replica) onNewView(from int, m *Msg) {
	r.host.Elapse(r.cfg.SigVerify)
	if m.View < r.view || (m.View == r.view && r.inView) {
		return
	}
	if from != r.cfg.Policy.Leader(m.View) {
		return
	}
	if !r.host.VerifyNode(from, vcSigningBytes(m), m.Sig) {
		return
	}
	var metas [][]byte
	for _, id := range consensus.SortedNodes(r.vcs[m.View]) {
		metas = append(metas, r.vcs[m.View][id].Meta)
	}
	r.enterView(m.View, metas)
}

func (r *Replica) enterView(view uint64, metas [][]byte) {
	r.view = view
	r.inView = true
	r.timerEpoch++
	// Undecided instances are abandoned; the host (BIDL / baseline
	// ordering service) re-submits unordered payloads in the new view.
	for seq, in := range r.instances {
		if !in.decided {
			delete(r.instances, seq)
		} else if seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
	}
	delete(r.vcs, view)
	r.host.ViewChanged(view, r.Leader(), metas)
	if r.IsLeader() {
		pend := r.pending
		r.pending = nil
		for _, v := range pend {
			r.Propose(v)
		}
	}
}

// --- progress timer ----------------------------------------------------

func (r *Replica) armTimer() {
	if r.timerArmed || r.cfg.ViewTimeout <= 0 {
		return
	}
	r.timerArmed = true
	epoch := r.timerEpoch
	decided := r.decidedCnt
	r.host.After(r.cfg.ViewTimeout, func() {
		r.timerArmed = false
		if r.timerEpoch != epoch || !r.inView {
			return
		}
		if r.decidedCnt == decided && r.hasUndecided() {
			r.RequestViewChange()
		} else if r.hasUndecided() {
			r.retransmitStalled()
			r.armTimer()
		}
	})
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
	for _, seq := range consensus.SortedSeqs(r.instances) {
		in := r.instances[seq]
		if in.decided || !in.havePP {
			continue
		}
		r.host.Elapse(r.cfg.MACCompute)
		r.host.BroadcastCN(&Msg{Kind: kindPrePrepare, View: r.view, Seq: seq, Node: r.cfg.Self, Digest: in.digest, Data: in.data})
		if sent++; sent >= maxResend {
			break
		}
	}
}

func (r *Replica) resetTimerIfProgress() {
	if r.hasUndecided() {
		r.armTimer()
	}
}

func (r *Replica) hasUndecided() bool {
	for _, in := range r.instances {
		if !in.decided && in.havePP {
			return true
		}
	}
	return false
}
