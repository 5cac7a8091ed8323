// Package constest provides a reusable harness for exercising consensus
// protocols over simnet: it builds an N-replica cluster, wires each replica
// to a simulated single-core endpoint via a Host adapter, and records
// deliveries, certificates, and view changes for assertions.
//
// Every protocol package's tests (pbft, hotstuff, zyzzyva, sbft, raft) run
// the same conformance suite through this harness.
package constest

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/cost"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// Factory builds a replica for one node of the cluster.
type Factory func(cfg consensus.Config, host consensus.Host) consensus.Replica

// Delivery records one decided value at one node.
type Delivery struct {
	Seq  uint64
	Val  consensus.Value
	Cert *types.Certificate
	At   time.Duration
}

// Node is one consensus node: endpoint handler + consensus.Host adapter.
type Node struct {
	cluster *Cluster
	idx     int
	ep      *simnet.Endpoint
	ctx     *simnet.Context
	replica consensus.Replica

	Delivered []Delivery
	bySeq     map[uint64]int // delivery count per seq, to catch duplicates
	Views     []uint64
	Leaders   []int // the leader announced with each entry of Views
	Metas     [][][]byte

	// Meta is returned from ViewChangeMeta.
	Meta []byte
	// DropOutgoing, when true, silences the node (crash-like without
	// marking the endpoint down).
	DropOutgoing bool
}

// Replica returns the node's protocol instance.
func (n *Node) Replica() consensus.Replica { return n.replica }

// Endpoint returns the node's simnet endpoint.
func (n *Node) Endpoint() *simnet.Endpoint { return n.ep }

// OnMessage implements simnet.Handler.
func (n *Node) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	prev := n.ctx
	n.ctx = ctx
	defer func() { n.ctx = prev }()
	cm, ok := msg.(consensus.Msg)
	if !ok {
		return
	}
	idx, ok := n.cluster.index[from]
	if !ok {
		return
	}
	n.replica.Step(idx, cm)
}

// --- consensus.Host ----------------------------------------------------

// Send implements consensus.Host.
func (n *Node) Send(to int, m consensus.Msg) {
	if n.DropOutgoing {
		return
	}
	if to == n.idx {
		// Loopback without the network.
		n.replica.Step(n.idx, m)
		return
	}
	n.ctx.Send(n.cluster.Nodes[to].ep.ID(), m)
}

// BroadcastCN implements consensus.Host.
func (n *Node) BroadcastCN(m consensus.Msg) {
	if n.DropOutgoing {
		return
	}
	for i, peer := range n.cluster.Nodes {
		if i == n.idx {
			continue
		}
		n.ctx.Send(peer.ep.ID(), m)
	}
}

// After implements consensus.Host.
func (n *Node) After(d time.Duration, fn func()) {
	n.ctx.After(d, func(c *simnet.Context) {
		prev := n.ctx
		n.ctx = c
		defer func() { n.ctx = prev }()
		fn()
	})
}

// Elapse implements consensus.Host.
func (n *Node) Elapse(d time.Duration) { n.ctx.Elapse(d) }

// Sign implements consensus.Host.
func (n *Node) Sign(data []byte) crypto.Signature {
	sig, err := n.cluster.Scheme.Sign(n.cluster.Identity(n.idx), data)
	if err != nil {
		panic(err)
	}
	return sig
}

// VerifyNode implements consensus.Host.
func (n *Node) VerifyNode(node int, data []byte, sig crypto.Signature) bool {
	return n.cluster.Scheme.Verify(n.cluster.Identity(node), data, sig)
}

// Proposed implements consensus.Host.
func (n *Node) Proposed(seq uint64, v consensus.Value) {}

// Deliver implements consensus.Host.
func (n *Node) Deliver(seq uint64, v consensus.Value, cert *types.Certificate) {
	n.Delivered = append(n.Delivered, Delivery{Seq: seq, Val: v, Cert: cert, At: n.ctx.Now()})
	n.bySeq[seq]++
}

// ViewChanged implements consensus.Host.
func (n *Node) ViewChanged(view uint64, leader int, metas [][]byte) {
	n.Views = append(n.Views, view)
	n.Leaders = append(n.Leaders, leader)
	n.Metas = append(n.Metas, metas)
}

// ViewChangeMeta implements consensus.Host.
func (n *Node) ViewChangeMeta() []byte { return n.Meta }

// RandInt implements consensus.Host.
func (n *Node) RandInt(m int) int { return n.cluster.Sim.Rand().Intn(m) }

// DuplicateDeliveries returns seqs delivered more than once.
func (n *Node) DuplicateDeliveries() []uint64 {
	var dups []uint64
	for s, c := range n.bySeq {
		if c > 1 {
			dups = append(dups, s)
		}
	}
	return dups
}

// DeliveredDigests returns the decided digests ordered by seq, up to the
// first gap.
func (n *Node) DeliveredDigests() []crypto.Digest {
	m := make(map[uint64]crypto.Digest, len(n.Delivered))
	for _, d := range n.Delivered {
		m[d.Seq] = d.Val.Digest
	}
	var out []crypto.Digest
	for seq := uint64(0); ; seq++ {
		d, ok := m[seq]
		if !ok {
			break
		}
		out = append(out, d)
	}
	return out
}

// Cluster is an N-node consensus cluster over simnet.
type Cluster struct {
	Sim    *simnet.Sim
	Net    *simnet.Network
	Nodes  []*Node
	Scheme crypto.Scheme
	Cfg    consensus.Config
	index  map[simnet.NodeID]int
}

// Options tweak cluster construction.
type Options struct {
	Seed        int64
	ViewTimeout time.Duration
	Policy      consensus.LeaderPolicy
	Topology    *simnet.Topology
}

// NewCluster builds an n-node cluster tolerating f faults.
func NewCluster(n, f int, factory Factory, opts Options) *Cluster {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.ViewTimeout == 0 {
		opts.ViewTimeout = 50 * time.Millisecond
	}
	if opts.Policy == nil {
		opts.Policy = consensus.RoundRobin{N: n}
	}
	topo := simnet.DefaultTopology()
	if opts.Topology != nil {
		topo = *opts.Topology
	}
	sim := simnet.NewSim(opts.Seed)
	net := simnet.NewNetwork(sim, topo)
	scheme := crypto.NewHMACScheme([]byte("constest"))
	cm := cost.Default()
	c := &Cluster{Sim: sim, Net: net, Scheme: scheme, index: make(map[simnet.NodeID]int)}
	base := consensus.Config{
		N: n, F: f,
		Policy:           opts.Policy,
		ViewTimeout:      opts.ViewTimeout,
		SigVerify:        cm.SigVerify,
		SigSign:          cm.SigSign,
		MACVerify:        cm.MACVerify,
		MACCompute:       cm.MACCompute,
		ThresholdSign:    cm.ThresholdSign,
		ThresholdCombine: cm.ThresholdCombine,
	}
	c.Cfg = base
	for i := 0; i < n; i++ {
		node := &Node{cluster: c, idx: i, bySeq: make(map[uint64]int)}
		node.ep = net.Register(fmt.Sprintf("cn%d", i), 0, node)
		c.index[node.ep.ID()] = i
		scheme.Register(c.Identity(i))
		cfg := base
		cfg.Self = i
		node.replica = factory(cfg, node)
		c.Nodes = append(c.Nodes, node)
	}
	sim.At(0, func() {
		for _, node := range c.Nodes {
			node.withCtx(func() { node.replica.Start() })
		}
	})
	return c
}

// WithCtx gives the node a synthetic activation context for calls injected
// from outside a handler (Propose, Start, forced view changes).
func (n *Node) WithCtx(fn func()) { n.withCtx(fn) }

// withCtx gives the node a synthetic activation context for calls injected
// from the test (Propose, Start).
func (n *Node) withCtx(fn func()) {
	prev := n.ctx
	n.ctx = simnet.NewInjectedContext(n.cluster.Net, n.ep)
	defer func() { n.ctx = prev }()
	fn()
}

// Identity names consensus node i in the membership registry.
func (c *Cluster) Identity(i int) crypto.Identity {
	return crypto.Identity(fmt.Sprintf("cn%d", i))
}

// LeaderIdx returns the current leader according to node 0.
func (c *Cluster) LeaderIdx() int { return c.Nodes[0].replica.Leader() }

// Propose schedules a proposal at the current leader at time d.
func (c *Cluster) Propose(d time.Duration, v consensus.Value) {
	c.Sim.At(d, func() {
		leader := c.Nodes[c.LeaderIdx()]
		leader.withCtx(func() { leader.replica.Propose(v) })
	})
}

// ProposeAt schedules a proposal at a specific node at time d.
func (c *Cluster) ProposeAt(node int, d time.Duration, v consensus.Value) {
	c.Sim.At(d, func() {
		nd := c.Nodes[node]
		nd.withCtx(func() { nd.replica.Propose(v) })
	})
}

// Run advances the simulation to t.
func (c *Cluster) Run(t time.Duration) { c.Sim.RunUntil(t) }

// SendAs transmits a protocol message from consensus node `from` to node
// `to` over the network at time d — used by tests to forge or replay
// messages (e.g. an equivocating leader).
func (c *Cluster) SendAs(d time.Duration, from, to int, m consensus.Msg) {
	c.Sim.At(d, func() {
		src := c.Nodes[from]
		ctx := simnet.NewInjectedContext(c.Net, src.ep)
		ctx.Send(c.Nodes[to].ep.ID(), m)
	})
}

// RequestViewChangeAll invokes RequestViewChange on every live replica at
// time d (the host-driven trigger path, §4.5).
func (c *Cluster) RequestViewChangeAll(d time.Duration) {
	c.Sim.At(d, func() {
		for _, n := range c.Nodes {
			if n.DropOutgoing {
				continue
			}
			n.withCtx(func() { n.replica.RequestViewChange() })
		}
	})
}

// Val builds a deterministic test value from a string.
func Val(s string) consensus.Value {
	return consensus.Value{Digest: crypto.Hash([]byte(s)), Data: []byte(s)}
}
