package pbft

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/constest"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

func factory(cfg consensus.Config, host consensus.Host) consensus.Replica {
	return New(cfg, host)
}

func TestConformance(t *testing.T) {
	constest.RunConformance(t, factory, constest.ConformanceOptions{HasCerts: true})
}

func TestConformanceLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("larger cluster")
	}
	constest.RunConformance(t, factory, constest.ConformanceOptions{N: 7, F: 2, HasCerts: true})
}

func TestEquivocatingLeaderTriggersViewChange(t *testing.T) {
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: 20 * time.Millisecond})
	// Node 0 leads view 0 and equivocates on seq 0: followers 1 sees
	// digest A, followers 2 and 3 see digest B. Prepares for different
	// digests never reach quorum; the progress timer forces a view change.
	a, b := constest.Val("A"), constest.Val("B")
	for i := 1; i < 4; i++ {
		v := a
		if i >= 2 {
			v = b
		}
		c.SendAs(time.Millisecond, 0, i,
			&Msg{Kind: kindPrePrepare, View: 0, Seq: 0, Node: 0, Digest: v.Digest, Data: v.Data})
	}
	c.Run(2 * time.Second)
	for i := 1; i < 4; i++ {
		if c.Nodes[i].Replica().View() == 0 {
			t.Fatalf("node %d never left view 0 despite equivocation", i)
		}
	}
}

func TestDirectEquivocationDetection(t *testing.T) {
	// Followers seeing two conflicting pre-prepares for the same seq must
	// start a view change immediately (not just on timeout): with f+1
	// initiators the rest join and the view advances even though the
	// progress timer never fires.
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: time.Hour})
	a, b := constest.Val("A"), constest.Val("B")
	for _, follower := range []int{1, 2} {
		c.SendAs(time.Millisecond, 0, follower,
			&Msg{Kind: kindPrePrepare, View: 0, Seq: 0, Node: 0, Digest: a.Digest, Data: a.Data})
		c.SendAs(2*time.Millisecond, 0, follower,
			&Msg{Kind: kindPrePrepare, View: 0, Seq: 0, Node: 0, Digest: b.Digest, Data: b.Data})
	}
	c.Run(500 * time.Millisecond)
	for i := 1; i < 4; i++ {
		if c.Nodes[i].Replica().View() == 0 {
			t.Fatalf("node %d still in view 0 after direct equivocation detection", i)
		}
	}
}

func TestViewChangeCarriesMeta(t *testing.T) {
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: 10 * time.Millisecond})
	for i, n := range c.Nodes {
		n.Meta = []byte{byte('a' + i)}
	}
	c.RequestViewChangeAll(time.Millisecond)
	c.Run(time.Second)
	for i, n := range c.Nodes {
		if len(n.Views) == 0 {
			t.Fatalf("node %d saw no view change", i)
		}
		if len(n.Metas[0]) < 3 {
			t.Fatalf("node %d received %d metas, want >= quorum", i, len(n.Metas[0]))
		}
	}
}

func TestPreparedInstanceSurvivesViewChange(t *testing.T) {
	// An instance that reaches prepared state but is interrupted by a view
	// change must be re-proposed and decided in the next view without
	// duplicate delivery.
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: 15 * time.Millisecond})
	v := constest.Val("survivor")
	c.Propose(time.Millisecond, v)
	// Intra-DC one-way latency is 100µs: at t=1.15ms prepares have
	// quorum-ed at some nodes but commits are still in flight.
	c.RequestViewChangeAll(1150 * time.Microsecond)
	c.Run(2 * time.Second)
	for i, n := range c.Nodes {
		found := false
		for _, d := range n.Delivered {
			if d.Val.Digest == v.Digest {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d lost the in-flight value across the view change", i)
		}
		if dups := n.DuplicateDeliveries(); len(dups) != 0 {
			t.Fatalf("node %d delivered %v twice", i, dups)
		}
	}
}

func TestMessageSizes(t *testing.T) {
	m := &Msg{Kind: kindPrePrepare, Data: make([]byte, 100), Sig: make([]byte, 32)}
	if m.Size() <= 100 {
		t.Fatal("size must include headers")
	}
}

// countingScheme counts the real verifications a run performs.
type countingScheme struct {
	crypto.Scheme
	verifies int
}

func (s *countingScheme) Verify(id crypto.Identity, msg []byte, sig crypto.Signature) bool {
	s.verifies++
	return s.Scheme.Verify(id, msg, sig)
}

// TestCommitVerdictSharedButExact: a broadcast commit is one object, so its
// signature is really verified once however many replicas receive it — but
// the verdict is exact. A copy with the same content and a junk signature is
// rejected by every receiver even after another accepted the authentic one,
// and the authentic object relayed by another node (checked against that
// node's key) is rejected without spoiling it for its true sender.
func TestCommitVerdictSharedButExact(t *testing.T) {
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: time.Hour})
	counter := &countingScheme{Scheme: c.Scheme}
	c.Scheme = counter
	d := crypto.Hash([]byte("block"))
	sig, err := counter.Sign(c.Identity(0), types.CertSigningBytes(0, 0, d))
	if err != nil {
		t.Fatal(err)
	}
	authentic := &Msg{Kind: kindCommit, View: 0, Seq: 0, Node: 0, Digest: d, Sig: sig}
	junk := &Msg{Kind: kindCommit, View: 0, Seq: 0, Node: 0, Digest: d, Sig: crypto.Signature("junk")}
	step := func(to, from int, m *Msg) {
		c.Nodes[to].WithCtx(func() { c.Nodes[to].Replica().Step(from, m) })
	}
	counted := func(at, from int) bool {
		_, ok := c.Nodes[at].Replica().(*Replica).Inst(0).commits[from]
		return ok
	}

	step(1, 0, authentic)
	if !counted(1, 0) {
		t.Fatal("authentic commit rejected")
	}
	for _, to := range []int{2, 3} {
		step(to, 0, junk)
		if counted(to, 0) {
			t.Fatalf("replica %d counted a junk-signed commit", to)
		}
		step(to, 1, authentic) // node 1 passing off node 0's commit as its own
		if counted(to, 1) {
			t.Fatalf("replica %d counted node 0's commit for node 1", to)
		}
		step(to, 0, authentic)
		if !counted(to, 0) {
			t.Fatalf("replica %d rejected the authentic commit after a relay attempt", to)
		}
	}

	counter.verifies = 0
	shared := &Msg{Kind: kindCommit, View: 0, Seq: 1, Node: 0, Digest: d}
	shared.Sig, _ = counter.Sign(c.Identity(0), types.CertSigningBytes(0, 1, d))
	for to := 1; to < 4; to++ {
		step(to, 0, shared)
	}
	if counter.verifies != 1 {
		t.Fatalf("%d real verifications of one broadcast commit, want 1", counter.verifies)
	}
}
