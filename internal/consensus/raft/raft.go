// Package raft implements a Raft-style CFT ordering protocol: leader-driven
// log replication with majority acknowledgement, heartbeats, and randomized
// leader election. It stands in for the built-in Raft orderer of FastFabric
// and StreamChain (§6, Baseline) and is exposed through the same blackbox
// consensus.Replica interface as the BFT protocols.
//
// Raft is crash-fault tolerant only: messages carry no signatures and
// deliveries carry no certificates — exactly the trust model FastFabric's
// paper assumes, and the reason it cannot survive the paper's S2/S3 attacks
// (Table 4).
package raft

import (
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
)

// Message kinds.
const (
	kindAppend = iota
	kindAck
	kindCommit
	kindVoteReq
	kindVote
)

// Msg is the single wire type for all Raft messages.
type Msg struct {
	Kind   int
	Term   uint64
	Seq    uint64
	Node   int
	Digest crypto.Digest
	Data   []byte
	// LastSeq is the candidate's log length in vote requests (election
	// restriction) and the leader's commit index on appends.
	LastSeq uint64
}

// Size implements consensus.Msg.
func (m *Msg) Size() int { return 1 + 8 + 8 + 4 + 32 + 8 + len(m.Data) + 16 /* MAC */ }

type entry struct {
	term    uint64
	val     consensus.Value
	acks    map[int]bool
	decided bool
}

type role int

const (
	follower role = iota
	candidate
	leader
)

// noBallot is votedFor in a term this node has not voted in.
const noBallot = -1

// Replica is one Raft node.
type Replica struct {
	cfg  consensus.Config
	host consensus.Host

	role     role
	term     uint64
	votedFor int             // this node's ballot in term, noBallot before it votes
	votes    consensus.Votes // the votes this node collected in term as a candidate
	leaderID int

	log       map[uint64]*entry
	nextSeq   uint64 // leader's next append index
	commitIdx uint64 // first not-yet-committed seq
	pending   []consensus.Value

	hbEpoch    uint64
	electEpoch uint64
}

// New creates a Raft replica. The initial leader is Policy.Leader(0) so the
// cluster starts without an election, matching how ordering services deploy.
func New(cfg consensus.Config, host consensus.Host) *Replica {
	r := &Replica{
		cfg:      cfg,
		host:     host,
		votedFor: noBallot,
		votes:    consensus.NewVotes(cfg.N),
		log:      make(map[uint64]*entry),
		leaderID: cfg.Policy.Leader(0),
	}
	if r.leaderID == cfg.Self {
		r.role = leader
	}
	return r
}

// View implements consensus.Replica (the Raft term).
func (r *Replica) View() uint64 { return r.term }

// Leader implements consensus.Replica.
func (r *Replica) Leader() int { return r.leaderID }

// IsLeader implements consensus.Replica.
func (r *Replica) IsLeader() bool { return r.role == leader }

// Start arms the leader's heartbeat.
func (r *Replica) Start() {
	if r.role == leader {
		r.heartbeat()
	}
}

func (r *Replica) majority() int { return r.cfg.N/2 + 1 }

// Propose implements consensus.Replica.
func (r *Replica) Propose(v consensus.Value) {
	if r.role != leader {
		r.pending = append(r.pending, v)
		return
	}
	seq := r.nextSeq
	r.nextSeq++
	e := &entry{term: r.term, val: v, acks: map[int]bool{r.cfg.Self: true}}
	r.log[seq] = e
	r.host.Proposed(seq, v)
	r.host.Elapse(r.cfg.MACCompute)
	r.host.BroadcastCN(&Msg{Kind: kindAppend, Term: r.term, Seq: seq, Node: r.cfg.Self,
		Digest: v.Digest, Data: v.Data, LastSeq: r.commitIdx})
}

// Step implements consensus.Replica.
func (r *Replica) Step(from int, m consensus.Msg) {
	msg, ok := m.(*Msg)
	if !ok {
		return
	}
	r.host.Elapse(r.cfg.MACVerify)
	if msg.Term > r.term {
		r.enterTerm(msg.Term)
		if r.role != follower {
			r.role = follower
		}
	}
	switch msg.Kind {
	case kindAppend:
		r.onAppend(from, msg)
	case kindAck:
		r.onAck(from, msg)
	case kindCommit:
		r.onCommit(from, msg)
	case kindVoteReq:
		r.onVoteReq(from, msg)
	case kindVote:
		r.onVote(from, msg)
	}
}

func (r *Replica) onAppend(from int, m *Msg) {
	if m.Term < r.term {
		return
	}
	r.leaderID = from
	if r.role != follower && from != r.cfg.Self {
		r.role = follower
	}
	if m.Data != nil || m.Digest != (crypto.Digest{}) {
		e, ok := r.log[m.Seq]
		if !ok || e.term <= m.Term {
			r.log[m.Seq] = &entry{term: m.Term, val: consensus.Value{Digest: m.Digest, Data: m.Data}}
			r.host.Proposed(m.Seq, consensus.Value{Digest: m.Digest, Data: m.Data})
		}
		r.host.Send(from, &Msg{Kind: kindAck, Term: r.term, Seq: m.Seq, Node: r.cfg.Self})
	}
	// Advance commit index from the leader's piggybacked value.
	r.advanceCommit(m.LastSeq)
}

func (r *Replica) onAck(from int, m *Msg) {
	if r.role != leader || m.Term != r.term {
		return
	}
	e, ok := r.log[m.Seq]
	if !ok || e.acks == nil {
		return
	}
	e.acks[from] = true
	// Commit every consecutive majority-acked entry.
	for {
		e, ok := r.log[r.commitIdx]
		if !ok || e.decided || e.acks == nil || len(e.acks) < r.majority() {
			break
		}
		r.deliver(r.commitIdx)
	}
	// Tell followers.
	if m.Seq < r.commitIdx {
		r.host.BroadcastCN(&Msg{Kind: kindCommit, Term: r.term, Node: r.cfg.Self, LastSeq: r.commitIdx})
	}
}

func (r *Replica) onCommit(from int, m *Msg) {
	if from != r.leaderID {
		return
	}
	r.advanceCommit(m.LastSeq)
}

// advanceCommit delivers all log entries below upto, in order, stopping at
// gaps (filled later by leader re-broadcast).
func (r *Replica) advanceCommit(upto uint64) {
	for r.commitIdx < upto {
		e, ok := r.log[r.commitIdx]
		if !ok {
			return
		}
		if !e.decided {
			r.deliver(r.commitIdx)
		} else {
			r.commitIdx++
		}
	}
}

func (r *Replica) deliver(seq uint64) {
	e := r.log[seq]
	e.decided = true
	r.commitIdx = seq + 1
	r.host.ConsensusPhase("replicated", uint64(r.term), seq)
	r.host.Deliver(seq, e.val, nil)
}

// --- heartbeats and re-broadcast ---------------------------------------

func (r *Replica) heartbeat() {
	if r.role != leader {
		return
	}
	r.hbEpoch++
	epoch := r.hbEpoch
	interval := r.cfg.ViewTimeout / 3
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	var tick func()
	tick = func() {
		if r.role != leader || r.hbEpoch != epoch {
			return
		}
		// Heartbeat with current commit index.
		r.host.BroadcastCN(&Msg{Kind: kindAppend, Term: r.term, Node: r.cfg.Self, LastSeq: r.commitIdx})
		// Re-broadcast uncommitted entries (retransmission on loss).
		for seq := r.commitIdx; seq < r.nextSeq; seq++ {
			if e, ok := r.log[seq]; ok && !e.decided {
				r.host.BroadcastCN(&Msg{Kind: kindAppend, Term: r.term, Seq: seq, Node: r.cfg.Self,
					Digest: e.val.Digest, Data: e.val.Data, LastSeq: r.commitIdx})
			}
		}
		r.host.After(interval, tick)
	}
	r.host.After(interval, tick)
}

// --- elections ----------------------------------------------------------

// RequestViewChange implements consensus.Replica: become a candidate.
func (r *Replica) RequestViewChange() {
	r.startElection()
}

// enterTerm moves to term t, in which this node has neither voted nor
// collected a vote.
func (r *Replica) enterTerm(t uint64) {
	r.term, r.votedFor, r.votes = t, noBallot, consensus.NewVotes(r.cfg.N)
}

func (r *Replica) startElection() {
	r.enterTerm(r.term + 1)
	r.role = candidate
	r.votedFor = r.cfg.Self
	r.votes.Add(r.cfg.Self, nil)
	r.host.BroadcastCN(&Msg{Kind: kindVoteReq, Term: r.term, Node: r.cfg.Self, LastSeq: r.highestStored()})
	// Randomized retry on split votes.
	term := r.term
	r.electEpoch++
	epoch := r.electEpoch
	retry := r.cfg.ViewTimeout/2 + time.Duration(r.host.RandInt(int(r.cfg.ViewTimeout/2)+1))
	r.host.After(retry, func() {
		if r.role == candidate && r.term == term && r.electEpoch == epoch {
			r.startElection()
		}
	})
}

func (r *Replica) onVoteReq(from int, m *Msg) {
	if m.Term < r.term {
		return
	}
	// Election restriction: only vote for candidates whose log is at
	// least as long as ours.
	if m.LastSeq < r.highestStored() {
		return
	}
	if r.votedFor != noBallot && r.votedFor != from {
		return
	}
	r.votedFor = from
	r.role = follower
	r.host.Send(from, &Msg{Kind: kindVote, Term: m.Term, Node: r.cfg.Self})
}

func (r *Replica) highestStored() uint64 {
	var hi uint64
	for seq := range r.log {
		if seq+1 > hi {
			hi = seq + 1
		}
	}
	return hi
}

func (r *Replica) onVote(from int, m *Msg) {
	if r.role != candidate || m.Term != r.term {
		return
	}
	r.votes.Add(from, nil)
	if r.votes.Len() < r.majority() {
		return
	}
	// Won: become leader, adopt the log, re-replicate uncommitted tail.
	r.role = leader
	r.leaderID = r.cfg.Self
	r.nextSeq = r.highestStored()
	for seq := r.commitIdx; seq < r.nextSeq; seq++ {
		if e, ok := r.log[seq]; ok {
			e.term = r.term
			if e.acks == nil {
				e.acks = map[int]bool{r.cfg.Self: true}
			}
		}
	}
	r.host.ViewChanged(r.term, r.cfg.Self, nil)
	r.host.BroadcastCN(&Msg{Kind: kindAppend, Term: r.term, Node: r.cfg.Self, LastSeq: r.commitIdx})
	r.heartbeat()
	pend := r.pending
	r.pending = nil
	for _, v := range pend {
		r.Propose(v)
	}
}
