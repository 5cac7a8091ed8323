package consensus

import (
	"encoding/binary"
	"math"
	"math/bits"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// The BFT protocols (pbft, sbft, zyzzyva, hotstuff) differ in their normal
// case — who votes to whom, in how many rounds — and share everything around
// it: the view and its leader, sequence assignment, queued proposals, the
// progress timer, and the view change. That shared part is Core, which each
// protocol's Replica embeds; what differs outside the normal case is handed to
// the core as a Protocol value, so the core never asks which protocol it
// serves. Like the replicas it is a deterministic state machine: it acts only
// when the host steps it and reaches the outside only through Host.

// Slot is what every protocol records about one sequence number: the leader's
// proposal and whether it is decided. A protocol's instance type embeds Slot
// and adds its vote tallies.
type Slot struct {
	Digest  crypto.Digest
	Data    []byte
	Have    bool // the proposal for this sequence is known
	Decided bool
}

// Base implements Instance for every type that embeds Slot.
func (s *Slot) Base() *Slot { return s }

// InFlight reports whether the sequence has a proposal awaiting a decision.
func (s *Slot) InFlight() bool { return s.Have && !s.Decided }

// Instance is a protocol's per-sequence state as the core sees it.
type Instance interface{ Base() *Slot }

// Entry is one in-flight instance inside a view-change message. Rank is the
// weight the reporting protocol gives it (see Protocol.Rank).
type Entry struct {
	Seq    uint64
	Digest crypto.Digest
	Data   []byte
	Rank   int
}

// Wire is what a protocol's encoding adds to the common view-change layout.
// Size feeds the network model, so these bytes move delivery times.
type Wire struct {
	Msg   int // per message (pbft authenticates with a 32 B MAC)
	Entry int // per entry (hotstuff carries a lock flag)
}

// ViewMsg is the view-change wire message of every protocol: a replica's
// signed request to move to View, carrying its in-flight entries and the
// host's piggybacked payload, or (NewView) the new leader's announcement that
// the view is installed.
type ViewMsg struct {
	NewView bool
	View    uint64
	Node    int
	Sig     crypto.Signature
	Meta    []byte
	Entries []Entry

	wire Wire
}

// Size implements Msg.
func (m *ViewMsg) Size() int {
	n := 1 + 8 + 8 + 4 + 32 + len(m.Sig) + len(m.Meta) + m.wire.Msg
	for _, e := range m.Entries {
		n += 8 + 32 + len(e.Data) + m.wire.Entry
	}
	return n
}

// PhaseMsg is the normal-case wire message of every BFT protocol: one step of
// agreement on Seq in View, sent by Node. Kind and the fields it fills are the
// protocol's: Data carries a proposal, Sig a vote or share (or hotstuff's
// quorum certificate), Certs a certificate's signatures.
type PhaseMsg struct {
	Kind   int
	View   uint64
	Seq    uint64
	Node   int
	Digest crypto.Digest
	Data   []byte
	Sig    crypto.Signature
	Certs  []types.NodeSig

	wire int // Wire.Msg of the sending protocol
	// verified memoises the check of Sig (keyed by signer) or of Certs: a
	// broadcast is one object every receiver reads, final once sent.
	verified crypto.Verdict
}

// Size implements Msg; a certificate signature is charged at 4+64 bytes.
func (m *PhaseMsg) Size() int {
	return 1 + 8 + 8 + 4 + 32 + len(m.Data) + len(m.Sig) + len(m.Certs)*(4+64) + m.wire
}

func (m *ViewMsg) signingBytes() []byte {
	buf := make([]byte, 0, 64)
	if m.NewView {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint64(buf, m.View)
	buf = append(buf, byte(m.Node))
	buf = append(buf, m.Meta...)
	for _, e := range m.Entries {
		buf = append(buf, byte(e.Rank))
		buf = append(buf, e.Digest[:]...)
	}
	return buf
}

// Votes is one phase's tally of votes on an instance, by member index in
// [0, n): at most one vote per member, a repeated vote keeping its latest
// signature. A has-voted bitmap and a signature per member replace a map by
// member; nothing is allocated before the first vote, nor a signature slot for
// a tally of unsigned votes.
type Votes struct {
	n, count int
	has      []uint64           // bit m%64 of word m/64: member m voted
	sigs     []crypto.Signature // by member, from the first signed vote on
}

// NewVotes returns an empty tally over n members.
func NewVotes(n int) Votes { return Votes{n: n} }

// Add records member's vote; sig is nil for an unsigned one.
func (v *Votes) Add(member int, sig crypto.Signature) {
	if v.has == nil {
		v.has = make([]uint64, (v.n+63)/64)
	}
	if w, bit := member/64, uint64(1)<<(member%64); v.has[w]&bit == 0 {
		v.has[w] |= bit
		v.count++
	}
	if sig != nil && v.sigs == nil {
		v.sigs = make([]crypto.Signature, v.n)
	}
	if v.sigs != nil {
		v.sigs[member] = sig
	}
}

// Len returns how many members voted.
func (v *Votes) Len() int { return v.count }

// Has reports whether member voted.
func (v *Votes) Has(member int) bool {
	return v.has != nil && v.has[member/64]&(1<<(member%64)) != 0
}

// Cert assembles the certificate for (view, seq, digest) from the first limit
// voters in ascending member order (every voter for limit <= 0).
func (v *Votes) Cert(view, seq uint64, d crypto.Digest, limit int) *types.Certificate {
	cert := &types.Certificate{View: view, Number: seq, Digest: d}
	k := v.count
	if limit > 0 && limit < k {
		k = limit
	}
	cert.Sigs = make([]types.NodeSig, 0, k)
	for w, word := range v.has {
		for ; word != 0 && len(cert.Sigs) < k; word &= word - 1 {
			m := 64*w + bits.TrailingZeros64(word)
			s := types.NodeSig{Node: m}
			if v.sigs != nil {
				s.Sig = v.sigs[m]
			}
			cert.Sigs = append(cert.Sigs, s)
		}
	}
	return cert
}

// Protocol is what differs between the BFT protocols outside their normal
// case. All fields but the last two are required.
type Protocol[I Instance] struct {
	// NewInstance allocates the state of a sequence first heard of.
	NewInstance func() I
	// ProposeAt runs the normal case for the proposal the core just filled
	// into in at seq in the current view; the core calls it on the leader
	// only.
	ProposeAt func(seq uint64, in I)
	// Rank says whether an instance goes into this replica's view-change
	// message (0: it does not) and with what weight.
	Rank func(in I) int
	// Supersedes is the merge rule of the new leader: whether an entry of
	// rank replaces the one of rank held already collected for the same
	// sequence. Messages are merged in ascending node order.
	Supersedes func(rank, held int) bool
	// Announce delivers this replica's view-change message to whoever
	// installs views: every replica (Core.Broadcast), or the next leader.
	Announce func(vc *ViewMsg)
	Wire     Wire

	// FillHoles, if set, adds entries for sequences the merged view-change
	// sets leave open, before the new leader re-proposes.
	FillHoles func(reprop map[uint64]Entry)
	// Stalled, if set, runs when the progress timer fires in a view that
	// decided something since it was armed yet still has undecided proposals.
	Stalled func()
}

// RankUndecided is the Rank of protocols that report every undecided proposal
// with the same weight.
func RankUndecided[I Instance](in I) int {
	if in.Base().InFlight() {
		return 1
	}
	return 0
}

// HigherRank is the Supersedes of protocols in which the weightier entry wins
// and the first reporter keeps a tie.
func HigherRank(rank, held int) bool { return rank > held }

// Core is the replica skeleton the BFT protocols embed. Cfg, Host and
// Instances are for the embedding protocol's normal case; the rest of the
// state changes only through the methods.
type Core[I Instance] struct {
	Cfg       Config
	Host      Host
	Instances map[uint64]I

	p          Protocol[I]
	view       uint64
	inView     bool // false while a view change is in progress
	nextSeq    uint64
	pending    []Value                     // proposals waiting for leadership
	vcs        map[uint64]map[int]*ViewMsg // view-change messages by target view
	timerArmed bool
	epoch      uint64 // advances on leaving and on entering a view: stale timers see it moved
	decidedCnt uint64
}

// Init prepares the core of a replica in view 0.
func (c *Core[I]) Init(cfg Config, host Host, p Protocol[I]) {
	c.Cfg, c.Host, c.p = cfg, host, p
	c.inView = true
	c.Instances = make(map[uint64]I)
	c.vcs = make(map[uint64]map[int]*ViewMsg)
}

// View implements Replica.
func (c *Core[I]) View() uint64 { return c.view }

// Leader implements Replica.
func (c *Core[I]) Leader() int { return c.Cfg.Policy.Leader(c.view) }

// IsLeader implements Replica.
func (c *Core[I]) IsLeader() bool { return c.Leader() == c.Cfg.Self }

// Start implements Replica: timers are armed by the first proposal.
func (c *Core[I]) Start() {}

// InView reports whether the replica takes part in its current view; it is
// false from leaving a view until the next one is installed.
func (c *Core[I]) InView() bool { return c.inView }

// Inst returns the instance for seq, allocating it on first use.
func (c *Core[I]) Inst(seq uint64) I {
	in, ok := c.Instances[seq]
	if !ok {
		in = c.p.NewInstance()
		c.Instances[seq] = in
	}
	return in
}

// Decided reports whether seq is decided at this replica.
func (c *Core[I]) Decided(seq uint64) bool {
	in, ok := c.Instances[seq]
	return ok && in.Base().Decided
}

// Propose implements Replica. The leader assigns the next sequence and runs
// the protocol's normal case; any other replica queues the value until it
// leads (hosts normally route proposals to the leader anyway).
func (c *Core[I]) Propose(v Value) {
	if !c.IsLeader() || !c.inView {
		c.pending = append(c.pending, v)
		return
	}
	c.proposeAt(c.nextSeq, v)
	c.nextSeq++
}

// proposeAt fills the slot of seq with the leader's own proposal, announces
// it to the host and runs the protocol's normal case for it.
func (c *Core[I]) proposeAt(seq uint64, v Value) {
	in := c.Inst(seq)
	s := in.Base()
	s.Digest, s.Data, s.Have = v.Digest, v.Data, true
	c.Host.Proposed(seq, v)
	c.p.ProposeAt(seq, in)
	c.ArmTimer()
}

// Accept fills the slot of a follower with the leader's proposal m and tells
// the host, if m is for the current view and from its leader; a second digest
// for a sequence is equivocation, answered with a view change. When m is not
// taken, ok is false and in the instance m named, if it got that far.
func (c *Core[I]) Accept(from int, m *PhaseMsg) (in I, ok bool) {
	if m.View != c.view || !c.inView || from != c.Leader() {
		return in, false
	}
	in = c.Inst(m.Seq)
	s := in.Base()
	if s.Decided {
		return in, false
	}
	if s.Have && s.Digest != m.Digest {
		c.RequestViewChange()
		return in, false
	}
	s.Digest, s.Data, s.Have = m.Digest, m.Data, true
	c.Host.Proposed(m.Seq, Value{Digest: m.Digest, Data: m.Data})
	return in, true
}

// SendPhase stamps m with this replica's view, index and wire overhead and
// sends it to consensus node to.
func (c *Core[I]) SendPhase(to int, m *PhaseMsg) { c.Host.Send(to, c.stamp(m)) }

// BroadcastPhase stamps m as SendPhase does and sends it to every other
// consensus node.
func (c *Core[I]) BroadcastPhase(m *PhaseMsg) { c.Host.BroadcastCN(c.stamp(m)) }

func (c *Core[I]) stamp(m *PhaseMsg) *PhaseMsg {
	m.View, m.Node, m.wire = c.view, c.Cfg.Self, c.p.Wire.Msg
	return m
}

// SignCert signs the certificate bytes of (seq, d) in the current view: the
// vote 2f+1 of which make a types.Certificate.
func (c *Core[I]) SignCert(seq uint64, d crypto.Digest) crypto.Signature {
	return c.Host.Sign(types.CertSigningBytes(c.view, seq, d))
}

// SignedBy reports whether m.Sig is from's signature over m's certificate
// bytes.
func (c *Core[I]) SignedBy(from int, m *PhaseMsg) bool {
	return m.verified.Check(uint32(from), func() bool {
		return c.Host.VerifyNode(from, types.CertSigningBytes(m.View, m.Seq, m.Digest), m.Sig)
	})
}

// DecideCert decides m.Seq on the certificate m carries: valid signatures of
// a quorum of distinct members over m's view, sequence and digest, which must
// be the digest proposed here, if any. The caller checks the sender and
// charges the verification.
func (c *Core[I]) DecideCert(m *PhaseMsg) {
	in := c.Inst(m.Seq)
	s := in.Base()
	if s.Decided || (s.Have && s.Digest != m.Digest) || !c.certValid(m) {
		return
	}
	if !s.Have {
		s.Digest, s.Data, s.Have = m.Digest, m.Data, true
	}
	c.Decide(m.Seq, in, "decided", &types.Certificate{View: m.View, Number: m.Seq, Digest: m.Digest, Sigs: m.Certs})
}

func (c *Core[I]) certValid(m *PhaseMsg) bool {
	return m.verified.Check(math.MaxUint32, func() bool { // a key no signer has
		signing := types.CertSigningBytes(m.View, m.Seq, m.Digest)
		valid := NewVotes(c.Cfg.N)
		for _, s := range m.Certs {
			if s.Node >= 0 && s.Node < c.Cfg.N && !valid.Has(s.Node) && c.Host.VerifyNode(s.Node, signing, s.Sig) {
				valid.Add(s.Node, nil)
			}
		}
		return valid.Len() >= c.Cfg.Quorum()
	})
}

// Decide marks in decided, delivers its value under cert, and keeps the
// progress timer running while other proposals are in flight.
func (c *Core[I]) Decide(seq uint64, in I, phase string, cert *types.Certificate) {
	s := in.Base()
	if s.Decided {
		return
	}
	s.Decided = true
	c.decidedCnt++
	c.Host.ConsensusPhase(phase, cert.View, seq)
	c.Host.Deliver(seq, Value{Digest: s.Digest, Data: s.Data}, cert)
	if c.hasUndecided() {
		c.ArmTimer()
	}
}

// --- view change ----------------------------------------------------------

// RequestViewChange implements Replica: abandon the current view.
func (c *Core[I]) RequestViewChange() { c.startViewChange(c.view + 1) }

func (c *Core[I]) startViewChange(newView uint64) {
	if newView <= c.view && !c.inView {
		return
	}
	c.inView = false
	c.epoch++
	var entries []Entry
	for _, seq := range SortedSeqs(c.Instances) {
		in := c.Instances[seq]
		if rank := c.p.Rank(in); rank > 0 {
			s := in.Base()
			entries = append(entries, Entry{Seq: seq, Digest: s.Digest, Data: s.Data, Rank: rank})
		}
	}
	c.Host.Elapse(c.Cfg.SigSign)
	c.p.Announce(c.sign(&ViewMsg{View: newView, Meta: c.Host.ViewChangeMeta(), Entries: entries}))
	// If the new view also stalls, escalate further.
	c.AfterInEpoch(c.Cfg.ViewTimeout, func() {
		if !c.inView {
			c.startViewChange(newView + 1)
		}
	})
}

func (c *Core[I]) sign(m *ViewMsg) *ViewMsg {
	m.Node, m.wire = c.Cfg.Self, c.p.Wire
	m.Sig = c.Host.Sign(m.signingBytes())
	return m
}

// Broadcast is the Announce of protocols in which every replica collects
// view-change messages: send to all, and count this replica's own.
func (c *Core[I]) Broadcast(vc *ViewMsg) {
	c.Host.BroadcastCN(vc)
	c.onViewChange(c.Cfg.Self, vc)
}

// StepView processes m if it is a view-change or new-view message; a
// protocol's Step passes it whatever is not its own normal-case message.
func (c *Core[I]) StepView(from int, m Msg) {
	switch vm, ok := m.(*ViewMsg); {
	case !ok:
	case vm.NewView:
		c.onNewView(from, vm)
	default:
		c.onViewChange(from, vm)
	}
}

func (c *Core[I]) onViewChange(from int, m *ViewMsg) {
	if m.View <= c.view {
		return
	}
	set := c.Collect(from, m)
	// f+1 replicas want a higher view, so a correct one does: join even
	// without a local trigger (PBFT's liveness rule).
	if len(set) == c.Cfg.F+1 && c.inView {
		if _, mine := set[c.Cfg.Self]; !mine {
			c.startViewChange(m.View)
		}
	}
	if len(set) >= c.Cfg.Quorum() && c.Cfg.Policy.Leader(m.View) == c.Cfg.Self {
		c.Install(m.View, set)
	}
}

// Collect files a view-change message under its target view once its
// signature checks out (this replica's own needs no check) and returns what
// that view has collected so far, nil for a forgery.
func (c *Core[I]) Collect(from int, m *ViewMsg) map[int]*ViewMsg {
	if from != c.Cfg.Self {
		c.Host.Elapse(c.Cfg.SigVerify)
		if !c.Host.VerifyNode(from, m.signingBytes(), m.Sig) {
			return nil
		}
	}
	set := c.vcs[m.View]
	if set == nil {
		set = make(map[int]*ViewMsg)
		c.vcs[m.View] = set
	}
	set[from] = m
	return set
}

// Install makes this replica the leader of view from a quorum of view-change
// messages: merge their entries, announce the view, enter it, and re-propose
// what was in flight.
func (c *Core[I]) Install(view uint64, set map[int]*ViewMsg) {
	if c.view >= view && c.inView {
		return // installed by the join above, which counted our own message
	}
	reprop := make(map[uint64]Entry)
	var metas [][]byte
	for _, id := range SortedNodes(set) {
		vc := set[id]
		metas = append(metas, vc.Meta)
		for _, e := range vc.Entries {
			if held, ok := reprop[e.Seq]; !ok || c.p.Supersedes(e.Rank, held.Rank) {
				reprop[e.Seq] = e
			}
		}
	}
	if c.p.FillHoles != nil {
		c.p.FillHoles(reprop)
	}
	c.Host.Elapse(c.Cfg.SigSign)
	c.Host.BroadcastCN(c.sign(&ViewMsg{NewView: true, View: view}))
	c.enterView(view, metas)
	for _, seq := range SortedSeqs(reprop) {
		if c.Decided(seq) {
			continue
		}
		delete(c.Instances, seq)
		e := reprop[seq]
		c.proposeAt(seq, Value{Digest: e.Digest, Data: e.Data})
		if seq >= c.nextSeq {
			c.nextSeq = seq + 1
		}
	}
}

func (c *Core[I]) onNewView(from int, m *ViewMsg) {
	c.Host.Elapse(c.Cfg.SigVerify)
	if c.ExpectsNewView(from, m) {
		c.AdoptNewView(from, m)
	}
}

// ExpectsNewView reports whether a new-view message is for a view this
// replica has yet to enter and comes from that view's leader.
func (c *Core[I]) ExpectsNewView(from int, m *ViewMsg) bool {
	if m.View < c.view || (m.View == c.view && c.inView) {
		return false
	}
	return from == c.Cfg.Policy.Leader(m.View)
}

// AdoptNewView enters the announced view if the leader's signature checks
// out, handing the host the payloads of the view-change messages this replica
// collected for it.
func (c *Core[I]) AdoptNewView(from int, m *ViewMsg) {
	if !c.Host.VerifyNode(from, m.signingBytes(), m.Sig) {
		return
	}
	var metas [][]byte
	set := c.vcs[m.View]
	for _, id := range SortedNodes(set) {
		metas = append(metas, set[id].Meta)
	}
	c.enterView(m.View, metas)
}

func (c *Core[I]) enterView(view uint64, metas [][]byte) {
	c.view = view
	c.inView = true
	c.epoch++
	// Undecided instances are abandoned; the new leader re-proposes what the
	// view-change messages carried and the host re-submits the rest.
	for seq, in := range c.Instances {
		if !in.Base().Decided {
			delete(c.Instances, seq)
		} else if seq >= c.nextSeq {
			c.nextSeq = seq + 1
		}
	}
	// Views at or below this one are never looked at again: drop what was
	// collected for them, abandoned and escalated-past attempts included,
	// or the messages and the proposal data in them live for the whole run.
	for v := range c.vcs {
		if v <= view {
			delete(c.vcs, v)
		}
	}
	c.Host.ViewChanged(view, c.Leader(), metas)
	if c.IsLeader() {
		pend := c.pending
		c.pending = nil
		for _, v := range pend {
			c.Propose(v)
		}
	}
}

// --- timers ---------------------------------------------------------------

// AfterInEpoch runs fn after d unless the replica left or entered a view in
// the meantime.
func (c *Core[I]) AfterInEpoch(d time.Duration, fn func()) {
	epoch := c.epoch
	c.Host.After(d, func() {
		if c.epoch == epoch {
			fn()
		}
	})
}

// ArmTimer starts the progress timer unless it is running: a view that
// decides nothing for ViewTimeout while proposals are in flight is abandoned.
func (c *Core[I]) ArmTimer() {
	if c.timerArmed || c.Cfg.ViewTimeout <= 0 {
		return
	}
	c.timerArmed = true
	epoch, decided := c.epoch, c.decidedCnt
	c.Host.After(c.Cfg.ViewTimeout, func() {
		c.timerArmed = false
		if c.epoch != epoch || !c.inView || !c.hasUndecided() {
			return
		}
		if c.decidedCnt == decided {
			c.RequestViewChange()
			return
		}
		if c.p.Stalled != nil {
			c.p.Stalled()
		}
		c.ArmTimer()
	})
}

func (c *Core[I]) hasUndecided() bool {
	for _, in := range c.Instances {
		if in.Base().InFlight() {
			return true
		}
	}
	return false
}
