package simhost

import (
	"fmt"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/cost"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/simnet"
)

// stubReplica records what the transport steps it with.
type stubReplica struct {
	consensus.Replica
	steps []string
}

func (r *stubReplica) Step(from int, m consensus.Msg) {
	r.steps = append(r.steps, fmt.Sprintf("%d:%s", from, m.(note)))
}

// note is a protocol message.
type note string

func (n note) Size() int { return len(n) }

// node is the smallest embedder: the transport plus message dispatch.
type node struct{ Host }

func (n *node) OnMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	n.Bind(ctx, func() { n.Receive(from, msg.(consensus.Msg)) })
}

func (n *node) steps() []string { return n.Rep.(*stubReplica).steps }

// inject runs fn inside a synthetic activation of n.
func (n *node) inject(net *simnet.Network, fn func()) {
	n.Bind(simnet.NewInjectedContext(net, n.Ep), fn)
}

func newGroup(t *testing.T, size int) (*simnet.Sim, *simnet.Network, []*node) {
	t.Helper()
	sim := simnet.NewSim(1)
	net := simnet.NewNetwork(sim, simnet.DefaultTopology())
	g := &Group{
		Sim:      sim,
		Scheme:   crypto.NewHMACScheme([]byte("simhost")),
		Identity: func(i int) crypto.Identity { return crypto.Identity(fmt.Sprintf("member%d", i)) },
	}
	nodes := make([]*node, size)
	for i := range nodes {
		nodes[i] = &node{}
		g.Join(&nodes[i].Host, net.Register(fmt.Sprintf("m%d", i), 0, nodes[i]))
		nodes[i].Rep = &stubReplica{}
		if nodes[i].Idx != i {
			t.Fatalf("member %d joined with index %d", i, nodes[i].Idx)
		}
	}
	return sim, net, nodes
}

// wiretap counts the messages the network carries: a DropFilter sees every
// copy and drops none.
func wiretap(net *simnet.Network) *int {
	carried := new(int)
	net.DropFilter = func(simnet.NodeID, simnet.NodeID, simnet.Message) bool {
		*carried++
		return false
	}
	return carried
}

func TestSendAndBroadcastReachPeersNeverSelf(t *testing.T) {
	sim, net, nodes := newGroup(t, 4)
	carried := wiretap(net)
	nodes[2].inject(net, func() {
		nodes[2].BroadcastCN(note("all"))
		nodes[2].Send(0, note("one"))
	})
	sim.Run()
	if *carried != 4 {
		t.Fatalf("network carried %d messages, want 3 broadcast copies + 1 unicast", *carried)
	}
	want := map[int][]string{0: {"2:all", "2:one"}, 1: {"2:all"}, 2: nil, 3: {"2:all"}}
	for i, n := range nodes {
		if fmt.Sprint(n.steps()) != fmt.Sprint(want[i]) {
			t.Errorf("member %d stepped with %v, want %v", i, n.steps(), want[i])
		}
	}
}

func TestAfterBindsTimerContextAndRestores(t *testing.T) {
	sim, net, nodes := newGroup(t, 1)
	n := nodes[0]
	outer := simnet.NewInjectedContext(net, n.Ep)
	var firedAt time.Duration
	n.Bind(outer, func() {
		n.After(3*time.Millisecond, func() {
			if n.Ctx == nil || n.Ctx == outer {
				t.Error("timer callback ran without the timer's own activation bound")
			}
			firedAt = n.Ctx.Now()
			n.Elapse(time.Millisecond) // charges the bound activation, must not panic
		})
		// Activations nest: an inner Bind hands the outer one back.
		n.Bind(simnet.NewInjectedContext(net, n.Ep), func() {})
		if n.Ctx != outer {
			t.Error("inner Bind did not restore the outer activation")
		}
	})
	if n.Ctx != nil {
		t.Fatal("Bind left an activation bound after returning")
	}
	sim.Run()
	if firedAt != 3*time.Millisecond {
		t.Fatalf("timer fired at %v, want 3ms", firedAt)
	}
	if n.Ctx != nil {
		t.Fatal("After left the timer's activation bound")
	}
}

func TestMessageFromNonMemberIgnored(t *testing.T) {
	sim, net, nodes := newGroup(t, 2)
	outsider := net.Register("outsider", 0, simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) {}))
	simnet.NewInjectedContext(net, outsider).Send(nodes[0].Ep.ID(), note("forged"))
	simnet.NewInjectedContext(net, nodes[1].Ep).Send(nodes[0].Ep.ID(), note("genuine"))
	sim.Run()
	if got := nodes[0].steps(); len(got) != 1 || got[0] != "1:genuine" {
		t.Fatalf("steps = %v, want only the member's message", got)
	}
}

func TestVerifyNodeIsPerMember(t *testing.T) {
	_, _, nodes := newGroup(t, 3)
	data := []byte("payload")
	sig := nodes[1].Sign(data)
	if !nodes[0].VerifyNode(1, data, sig) {
		t.Fatal("member 1's signature rejected under its own index")
	}
	if nodes[0].VerifyNode(2, data, sig) {
		t.Fatal("member 1's signature accepted as member 2's")
	}
	if nodes[0].VerifyNode(1, []byte("other"), sig) {
		t.Fatal("signature accepted over different data")
	}
}

func TestConfigLowersEveryCost(t *testing.T) {
	m := cost.Default()
	policy := consensus.RoundRobin{N: 7}
	got := Config(m, 7, 2, policy, 40*time.Millisecond)
	want := consensus.Config{
		N: 7, F: 2, Policy: policy, ViewTimeout: 40 * time.Millisecond,
		SigVerify: m.SigVerify, SigSign: m.SigSign, MACVerify: m.MACVerify, MACCompute: m.MACCompute,
		ThresholdSign: m.ThresholdSign, ThresholdCombine: m.ThresholdCombine,
	}
	if got != want {
		t.Fatalf("Config = %+v, want %+v", got, want)
	}
}
