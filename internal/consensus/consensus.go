// Package consensus defines the blackbox interface BIDL uses to drive a BFT
// (or CFT) agreement protocol (§4.2: "BIDL treats the BFT protocol as a
// blackbox"), plus shared plumbing. Concrete protocols live in
// subpackages: pbft (BFT-SMaRt stand-in), hotstuff, zyzzyva, sbft, and raft.
//
// A Replica is a message-driven state machine hosted on one simulated node.
// The Host interface supplies transport, timers, virtual CPU charging,
// signing, and delivery callbacks; BIDL and the baseline frameworks provide
// Host implementations wired to simnet endpoints.
package consensus

import (
	"encoding/binary"
	"sort"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// Value is an opaque proposal: the digest is what certificates sign (BIDL
// passes a block header digest — consensus-on-hash), and Data carries the
// encoded hash list whose size the network model accounts.
type Value struct {
	Digest crypto.Digest
	Data   []byte
}

// Size returns the value's wire footprint.
func (v Value) Size() int { return 32 + len(v.Data) }

// Msg is a protocol message travelling between consensus nodes. It doubles
// as a simnet.Message.
type Msg interface {
	Size() int
}

// Host is everything a replica needs from its execution environment.
// All callbacks run on the hosting node's simulated core.
type Host interface {
	// Send routes a protocol message to consensus node index `to`.
	Send(to int, m Msg)
	// BroadcastCN routes a protocol message to every other consensus node.
	BroadcastCN(m Msg)
	// After schedules fn on this node's core after d (queued like a
	// delivery; a busy core delays it).
	After(d time.Duration, fn func())
	// Elapse charges virtual CPU time to the current activation.
	Elapse(d time.Duration)
	// Sign signs data as this consensus node.
	Sign(data []byte) crypto.Signature
	// VerifyNode verifies a signature by consensus node index.
	VerifyNode(node int, data []byte, sig crypto.Signature) bool
	// Proposed announces that the current leader proposed v at seq (the
	// pre-prepare/order-request stage). Hosts may act on proposals before
	// agreement — BIDL's persist protocol matches result vectors against
	// the leader's proposal (Algo 1 line 17).
	Proposed(seq uint64, v Value)
	// Deliver announces a decided value. Called exactly once per seq.
	Deliver(seq uint64, v Value, cert *types.Certificate)
	// ViewChanged announces that the protocol entered a new view.
	// meta carries the per-node opaque payloads piggybacked on the
	// view-change messages (BIDL's denylist votes, §4.5).
	ViewChanged(view uint64, leader int, meta [][]byte)
	// ViewChangeMeta returns this node's payload to piggyback on its next
	// view-change message.
	ViewChangeMeta() []byte
	// RandInt returns a deterministic random int in [0,n) (protocol
	// tie-breaking only; never safety-relevant).
	RandInt(n int) int
	// ConsensusPhase annotates a protocol milestone (pre-prepare sent,
	// prepare/commit quorum formed, QC assembled, ...) for tracing.
	ConsensusPhase(phase string, view, seq uint64)
}

// LeaderPolicy maps views to leader indices. BIDL supplies its random
// epoch-rotation policy (§4.6); baselines use round-robin.
type LeaderPolicy interface {
	Leader(view uint64) int
}

// RoundRobin is the classic PBFT v mod n policy.
type RoundRobin struct{ N int }

// Leader implements LeaderPolicy.
func (r RoundRobin) Leader(view uint64) int { return int(view % uint64(r.N)) }

// RandomEpoch implements BIDL's unpredictable leader rotation: views are
// grouped into epochs of N views; within an epoch each node leads exactly
// once, in an order drawn from a PRF over the epoch number, so a malicious
// node cannot steer which correct leader follows it (§4.6).
//
// The paper seeds the draw with the hash of the last committed block; we
// seed with a per-chain genesis seed plus the epoch number, which keeps the
// permutation unpredictable to the adversary while guaranteeing that nodes
// with divergent commit frontiers still agree on the schedule (documented
// substitution, DESIGN.md §4).
type RandomEpoch struct {
	N    int
	Seed crypto.Digest

	// perms memoises each epoch's schedule, so Leader is a lookup. One policy
	// instance serves every replica and normal node of a cluster, all in the
	// run's one event loop.
	perms map[uint64][]int
}

// Leader implements LeaderPolicy.
func (r *RandomEpoch) Leader(view uint64) int {
	epoch := view / uint64(r.N)
	perm, ok := r.perms[epoch]
	if !ok {
		if r.perms == nil {
			r.perms = make(map[uint64][]int)
		}
		perm = r.permutation(epoch)
		r.perms[epoch] = perm
	}
	return perm[view%uint64(r.N)]
}

// permutation returns the epoch's leader order via a seeded Fisher-Yates
// shuffle driven by successive hashes.
func (r *RandomEpoch) permutation(epoch uint64) []int {
	perm := make([]int, r.N)
	for i := range perm {
		perm[i] = i
	}
	state := crypto.HashAll(r.Seed[:], []byte("epoch"), binary.BigEndian.AppendUint64(nil, epoch))
	for i := r.N - 1; i > 0; i-- {
		state = crypto.Hash(state[:])
		j := int(binary.BigEndian.Uint64(state[:8]) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Replica is one consensus node's protocol instance.
type Replica interface {
	// Start arms initial timers.
	Start()
	// Propose requests agreement on v. Only the current leader acts on
	// it; hosts route client input to the leader themselves.
	Propose(v Value)
	// Step processes a protocol message from consensus node `from`.
	Step(from int, m Msg)
	// RequestViewChange asks the protocol to abandon the current view
	// (BIDL's shepherd calls this on detected misbehaviour, §4.5).
	RequestViewChange()
	// View returns the current view number.
	View() uint64
	// Leader returns the current leader's index.
	Leader() int
	// IsLeader reports whether this replica currently leads.
	IsLeader() bool
}

// Config carries the parameters every protocol shares.
type Config struct {
	// N is the number of consensus nodes; F the tolerated faults.
	N, F int
	// Self is this replica's index in [0,N).
	Self int
	// Policy selects leaders per view.
	Policy LeaderPolicy
	// ViewTimeout is the progress timeout that triggers view changes.
	ViewTimeout time.Duration
	// SigVerify/SigSign are virtual crypto costs charged per
	// signature operation; MACVerify/MACCompute per MAC operation.
	SigVerify, SigSign    time.Duration
	MACVerify, MACCompute time.Duration
	// ThresholdSign/ThresholdCombine are charged by protocols using
	// threshold signatures (SBFT, HotStuff QCs).
	ThresholdSign, ThresholdCombine time.Duration
}

// Quorum returns the 2f+1 quorum size.
func (c Config) Quorum() int { return 2*c.F + 1 }

// FastQuorum returns the 3f+1 (all-replica) fast-path size.
func (c Config) FastQuorum() int { return 3*c.F + 1 }

// FastPathWait is how long a collector (SBFT, Zyzzyva) that holds 2f+1
// responses waits for the 3f+1 fast quorum before taking the slow path.
func (c Config) FastPathWait() time.Duration {
	if d := c.ViewTimeout / 4; d > 0 {
		return d
	}
	return 5 * time.Millisecond
}

// SortedNodes returns m's replica indices in ascending order. Protocols
// assemble certificates and merge view-change sets from maps keyed by node;
// iterating those maps directly would let Go's randomized iteration order
// leak into message content and send order, breaking the simulator's
// same-seed determinism guarantee.
func SortedNodes[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// SortedSeqs returns m's sequence numbers in ascending order, for the same
// reason as SortedNodes: re-proposal and view-change collection must not
// depend on map iteration order.
func SortedSeqs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
