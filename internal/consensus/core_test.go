package consensus_test

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/constest"
	"github.com/bidl-framework/bidl/internal/consensus/hotstuff"
	"github.com/bidl-framework/bidl/internal/consensus/pbft"
	"github.com/bidl-framework/bidl/internal/consensus/sbft"
	"github.com/bidl-framework/bidl/internal/consensus/zyzzyva"
	"github.com/bidl-framework/bidl/internal/types"
)

// TestViewMsgSize pins the wire sizes the network model charges: the common
// layout plus what each protocol's encoding adds (pbft a 32 B MAC per
// message, hotstuff a lock flag per entry).
func TestViewMsgSize(t *testing.T) {
	m := consensus.ViewMsg{
		Sig:     make([]byte, 32),
		Meta:    []byte("abc"),
		Entries: []consensus.Entry{{Data: make([]byte, 50)}, {}},
	}
	const common = 1 + 8 + 8 + 4 + 32 + 32 + 3 + (8 + 32 + 50) + (8 + 32)
	for _, tc := range []struct {
		name string
		wire consensus.Wire
		want int
	}{
		{"sbft, zyzzyva", consensus.Wire{}, common},
		{"pbft", consensus.Wire{Msg: 32}, common + 32},
		{"hotstuff", consensus.Wire{Entry: 1}, common + 2},
	} {
		if got := m.WithWire(tc.wire).Size(); got != tc.want {
			t.Errorf("%s: Size() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPhaseMsgSize pins the normal-case wire sizes the network model charges:
// the common layout, a certificate signature at 4+64 bytes, plus pbft's 32 B
// MAC per message. Hotstuff carries its 32 B QC in Sig, beside the decide's
// certificate votes.
func TestPhaseMsgSize(t *testing.T) {
	const common = 1 + 8 + 8 + 4 + 32
	for _, tc := range []struct {
		name string
		m    *consensus.PhaseMsg
		wire consensus.Wire
		want int
	}{
		{"pbft pre-prepare", &consensus.PhaseMsg{Data: make([]byte, 100)}, consensus.Wire{Msg: 32}, common + 100 + 32},
		{"pbft commit", &consensus.PhaseMsg{Sig: make([]byte, 32)}, consensus.Wire{Msg: 32}, common + 32 + 32},
		{"hotstuff vote", &consensus.PhaseMsg{Sig: make([]byte, 32)}, consensus.Wire{Entry: 1}, common + 32},
		{"hotstuff decide", &consensus.PhaseMsg{Sig: make([]byte, 32), Certs: make([]types.NodeSig, 3)}, consensus.Wire{Entry: 1}, common + 32 + 3*68},
		{"sbft commit proof", &consensus.PhaseMsg{Data: make([]byte, 50), Certs: make([]types.NodeSig, 4)}, consensus.Wire{}, common + 50 + 4*68},
		{"zyzzyva spec response", &consensus.PhaseMsg{Sig: make([]byte, 32)}, consensus.Wire{}, common + 32},
	} {
		if got := tc.m.WithWire(tc.wire).Size(); got != tc.want {
			t.Errorf("%s: Size() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// collector is the part of the embedded core the leak test looks at.
type collector interface{ CollectedViews() []uint64 }

// TestEnteringViewDropsCollectedViewChanges: with the leaders of views 0 and
// 1 dead, every live replica collects view-change messages for view 1, which
// nobody installs, before the escalation timer carries the cluster to view 2.
// Entering view 2 must drop the abandoned view-1 set with it — those
// messages hold the in-flight proposals' data.
func TestEnteringViewDropsCollectedViewChanges(t *testing.T) {
	for name, factory := range map[string]constest.Factory{
		"pbft":     func(c consensus.Config, h consensus.Host) consensus.Replica { return pbft.New(c, h) },
		"sbft":     func(c consensus.Config, h consensus.Host) consensus.Replica { return sbft.New(c, h) },
		"zyzzyva":  func(c consensus.Config, h consensus.Host) consensus.Replica { return zyzzyva.New(c, h) },
		"hotstuff": func(c consensus.Config, h consensus.Host) consensus.Replica { return hotstuff.New(c, h) },
	} {
		t.Run(name, func(t *testing.T) {
			c := constest.NewCluster(7, 2, factory, constest.Options{ViewTimeout: 20 * time.Millisecond})
			c.ProposeAt(0, 900*time.Microsecond, constest.Val("inflight"))
			c.Sim.At(time.Millisecond, func() {
				for _, dead := range c.Nodes[:2] {
					dead.Endpoint().SetDown(true)
					dead.DropOutgoing = true
				}
			})
			c.RequestViewChangeAll(time.Millisecond)
			c.Run(200 * time.Millisecond)
			for i, n := range c.Nodes[2:] {
				if v := n.Replica().View(); v != 2 {
					t.Fatalf("node %d is in view %d, want 2 (escalation)", i+2, v)
				}
				for _, v := range n.Replica().(collector).CollectedViews() {
					if v <= 2 {
						t.Errorf("node %d still holds the view-change set of view %d", i+2, v)
					}
				}
			}
		})
	}
}
