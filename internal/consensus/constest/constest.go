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
	"github.com/bidl-framework/bidl/internal/simhost"
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

// Node is one consensus node: the shared simnet host transport plus a
// recorder of everything the replica decides and announces.
type Node struct {
	simhost.Host
	net *simnet.Network

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

// OnMessage implements simnet.Handler.
func (n *Node) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if cm, ok := msg.(consensus.Msg); ok {
		n.Bind(ctx, func() { n.Receive(from, cm) })
	}
}

// --- consensus.Host (transport: simhost.Host) ---------------------------

// Send implements consensus.Host; a silenced node sends nothing.
func (n *Node) Send(to int, m consensus.Msg) {
	if !n.DropOutgoing {
		n.Host.Send(to, m)
	}
}

// BroadcastCN implements consensus.Host; a silenced node sends nothing.
func (n *Node) BroadcastCN(m consensus.Msg) {
	if !n.DropOutgoing {
		n.Host.BroadcastCN(m)
	}
}

// Proposed implements consensus.Host.
func (n *Node) Proposed(seq uint64, v consensus.Value) {}

// Deliver implements consensus.Host.
func (n *Node) Deliver(seq uint64, v consensus.Value, cert *types.Certificate) {
	n.Delivered = append(n.Delivered, Delivery{Seq: seq, Val: v, Cert: cert, At: n.Ctx.Now()})
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

// Cluster is an N-node consensus cluster over simnet. The embedded group
// carries Sim, Scheme and Identity (which names consensus node i in the
// membership registry); the nodes read them through it, so a test may wrap
// Scheme after construction.
type Cluster struct {
	simhost.Group
	Net   *simnet.Network
	Nodes []*Node
	Cfg   consensus.Config
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
	c := &Cluster{Net: net, Group: simhost.Group{Sim: sim, Scheme: scheme, Identity: func(i int) crypto.Identity {
		return crypto.Identity(fmt.Sprintf("cn%d", i))
	}}}
	c.Cfg = simhost.Config(cost.Default(), n, f, opts.Policy, opts.ViewTimeout)
	for i := 0; i < n; i++ {
		node := &Node{net: net, bySeq: make(map[uint64]int)}
		c.Join(&node.Host, net.Register(fmt.Sprintf("cn%d", i), 0, node))
		cfg := c.Cfg
		cfg.Self = i
		node.Rep = factory(cfg, node)
		c.Nodes = append(c.Nodes, node)
	}
	sim.At(0, func() {
		for _, node := range c.Nodes {
			node.WithCtx(func() { node.Rep.Start() })
		}
	})
	return c
}

// WithCtx gives the node a synthetic activation context for calls injected
// from outside a handler (Propose, Start, forced view changes).
func (n *Node) WithCtx(fn func()) {
	n.Bind(simnet.NewInjectedContext(n.net, n.Ep), fn)
}

// LeaderIdx returns the current leader according to node 0.
func (c *Cluster) LeaderIdx() int { return c.Nodes[0].Rep.Leader() }

// Propose schedules a proposal at the current leader at time d.
func (c *Cluster) Propose(d time.Duration, v consensus.Value) {
	c.Sim.At(d, func() {
		leader := c.Nodes[c.LeaderIdx()]
		leader.WithCtx(func() { leader.Rep.Propose(v) })
	})
}

// ProposeAt schedules a proposal at a specific node at time d.
func (c *Cluster) ProposeAt(node int, d time.Duration, v consensus.Value) {
	c.Sim.At(d, func() {
		nd := c.Nodes[node]
		nd.WithCtx(func() { nd.Rep.Propose(v) })
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
		ctx := simnet.NewInjectedContext(c.Net, src.Ep)
		ctx.Send(c.Nodes[to].Ep.ID(), m)
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
			n.WithCtx(func() { n.Rep.RequestViewChange() })
		}
	})
}

// Val builds a deterministic test value from a string.
func Val(s string) consensus.Value {
	return consensus.Value{Digest: crypto.Hash([]byte(s)), Data: []byte(s)}
}
