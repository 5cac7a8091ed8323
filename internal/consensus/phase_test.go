package consensus_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/constest"
	"github.com/bidl-framework/bidl/internal/consensus/hotstuff"
	"github.com/bidl-framework/bidl/internal/consensus/pbft"
	"github.com/bidl-framework/bidl/internal/consensus/sbft"
	"github.com/bidl-framework/bidl/internal/consensus/zyzzyva"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// A certDecision is a BFT protocol's certificate-carrying decision in a
// 4-replica cluster: the message kind (the protocol's own constant, by
// value), the node it is taken from in view 0, and a view in which node 3
// may send it.
type certDecision struct {
	name      string
	factory   constest.Factory
	kind      int
	sender    int
	node3View byte
}

var certDecisions = []certDecision{
	// kindCommitProof, which sbft takes from any node: node 3 collects nothing.
	{"sbft", func(c consensus.Config, h consensus.Host) consensus.Replica { return sbft.New(c, h) }, 2, 3, 0},
	// kindCommitFast, from the view's collector.
	{"zyzzyva", func(c consensus.Config, h consensus.Host) consensus.Replica { return zyzzyva.New(c, h) }, 2, 1, 2},
	// kindDecide, from the view's leader.
	{"hotstuff", func(c consensus.Config, h consensus.Host) consensus.Replica { return hotstuff.New(c, h) }, 6, 0, 3},
}

// outsiders are signers the scheme knows that are no members of a 4-replica
// cluster, so that a certificate naming them carries signatures that verify.
var outsiders = []int{4, 5, 1 << 20}

// newAttackedCluster builds a 4-replica cluster that stays in view 0 for the
// 400 ms a test runs: no progress timer fires, but sbft's and zyzzyva's
// collectors fall back to 2f+1 after FastPathWait (250 ms).
func newAttackedCluster(factory constest.Factory) *constest.Cluster {
	c := constest.NewCluster(4, 1, factory, constest.Options{ViewTimeout: time.Second})
	for _, o := range outsiders {
		c.Scheme.Register(c.Identity(o))
	}
	return c
}

func signCert(c *constest.Cluster, node int, view, seq uint64, d crypto.Digest) crypto.Signature {
	sig, err := c.Scheme.Sign(c.Identity(node), types.CertSigningBytes(view, seq, d))
	if err != nil {
		panic(err)
	}
	return sig
}

// forgedCerts are the certificates a single faulty node can assemble for
// (view 0, seq 0, d) on its own; honest is one a quorum really signed.
func forgedCerts(c *constest.Cluster, sender int, d crypto.Digest) map[string][]types.NodeSig {
	own := signCert(c, sender, 0, 0, d)
	certs := map[string][]types.NodeSig{
		"junk signatures":        {{Node: 0, Sig: crypto.Signature("junk")}, {Node: 1, Sig: crypto.Signature("junk")}, {Node: 2, Sig: crypto.Signature("junk")}},
		"one signature repeated": {{Node: sender, Sig: own}, {Node: sender, Sig: own}, {Node: sender, Sig: own}},
		"out-of-range members":   {{Node: sender, Sig: own}, {Node: -1, Sig: own}},
		"honest":                 {},
	}
	for _, o := range outsiders {
		certs["out-of-range members"] = append(certs["out-of-range members"], types.NodeSig{Node: o, Sig: signCert(c, o, 0, 0, d)})
	}
	for node := 0; node < 3; node++ {
		certs["honest"] = append(certs["honest"], types.NodeSig{Node: node, Sig: signCert(c, node, 0, 0, d)})
	}
	return certs
}

// TestForgedCertificatesNotDelivered: the node a protocol takes its
// certificate-carrying decision from sends one for a sequence nobody
// proposed. A certificate a single faulty node could assemble is delivered by
// no replica, and an honest one decides at every receiver.
func TestForgedCertificatesNotDelivered(t *testing.T) {
	d := constest.Val("forged")
	for _, p := range certDecisions {
		for name, sigs := range forgedCerts(newAttackedCluster(p.factory), p.sender, d.Digest) {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				c := newAttackedCluster(p.factory)
				m := &consensus.PhaseMsg{Kind: p.kind, Node: p.sender, Digest: d.Digest, Data: d.Data, Certs: sigs}
				for to := range c.Nodes {
					if to != p.sender {
						c.SendAs(time.Millisecond, p.sender, to, m)
					}
				}
				c.Run(100 * time.Millisecond)
				for to, n := range c.Nodes {
					switch delivered := len(n.Delivered); {
					case to == p.sender:
					case name == "honest" && (delivered != 1 || n.Delivered[0].Val.Digest != d.Digest):
						t.Errorf("replica %d delivered %d values on an honest certificate, want it", to, delivered)
					case name != "honest" && delivered != 0:
						t.Errorf("replica %d delivered seq %d on a forged certificate", to, n.Delivered[0].Seq)
					}
				}
			})
		}
	}
}

// FuzzPhaseStep: node 3 of a 4-replica cluster sends drawn phase messages —
// any kind, view, sequence, node, digest, data, signature or certificate —
// while the honest leader proposes. Nothing may panic, every certificate a
// correct replica delivers must verify at quorum, and no two correct replicas
// may deliver different digests for one sequence. Each drawn message takes
// 8 bytes of the script; see phaseScript.
func FuzzPhaseStep(f *testing.F) {
	names := []string{"pbft"}
	factories := []constest.Factory{func(c consensus.Config, h consensus.Host) consensus.Replica { return pbft.New(c, h) }}
	// Seeds: a quiet run per protocol, and the forged certificates of the
	// test above sent by node 3 in a view in which it may send them.
	f.Add(uint8(0), false, []byte{})
	for _, p := range certDecisions {
		i := uint8(len(factories))
		names, factories = append(names, p.name), append(factories, p.factory)
		f.Add(i, false, []byte{})
		for _, cert := range []byte{certJunk, certRepeated, certOutsiders} {
			f.Add(i, false, []byte{byte(p.kind), p.node3View, 5, 5, 3, sigNone, cert, 3})
			f.Add(i, true, []byte{byte(p.kind), p.node3View, 4, 0, 1, sigNone, cert, 3})
		}
	}
	f.Fuzz(func(t *testing.T, proto uint8, silent bool, script []byte) {
		name := names[int(proto)%len(names)]
		c := newAttackedCluster(factories[int(proto)%len(factories)])
		const faulty = 3
		c.Nodes[faulty].DropOutgoing = silent // whether its honest replica still speaks
		for i := 0; i < 4; i++ {
			c.ProposeAt(0, time.Duration(i+1)*300*time.Microsecond, constest.Val(fmt.Sprintf("v%d", i)))
		}
		for i := 0; i+8 <= len(script) && i < 8*64; i += 8 {
			m, to, at := phaseScript(c, faulty, script[i:i+8])
			for dst := range c.Nodes {
				if dst != faulty && (to < 0 || to == dst) {
					c.SendAs(at, faulty, dst, m)
				}
			}
		}
		c.Run(400 * time.Millisecond)
		member := func(i int) crypto.Identity {
			if i < 0 || i >= len(c.Nodes) {
				return "" // outsiders are no members, whatever they signed
			}
			return c.Identity(i)
		}
		decided := make(map[uint64]crypto.Digest)
		for i, n := range c.Nodes {
			if i == faulty {
				continue
			}
			for _, d := range n.Delivered {
				if !d.Cert.Verify(c.Scheme, member, c.Cfg.Quorum()) {
					t.Fatalf("%s: replica %d delivered seq %d on a certificate that does not verify: %+v", name, i, d.Seq, d.Cert)
				}
				if prev, ok := decided[d.Seq]; ok && prev != d.Val.Digest {
					t.Fatalf("%s: replicas disagree on seq %d: %s vs %s", name, d.Seq, prev, d.Val.Digest)
				}
				decided[d.Seq] = d.Val.Digest
			}
		}
	})
}

// Signature choices of a drawn phase message.
const (
	sigNone = iota
	sigJunk
	sigOwn // the faulty node's valid vote on the drawn tuple
)

// Certificate choices of a drawn phase message: none, the forged ones of
// TestForgedCertificatesNotDelivered, or the faulty node's vote among junk.
const (
	certNone = iota
	certJunk
	certRepeated
	certOutsiders
	certMixed
)

// phaseScript decodes 8 bytes into a message node faulty sends, to one
// replica (to) or all (to < 0), at:
//
//	kind, view (mod 5), seq (mod 6), digest (0: zero, 1-4: a proposal's,
//	else junk) and data, delivery (low 2 bits: destination, 3 = all; the rest
//	sends it later), signature choice, certificate choice, node field.
func phaseScript(c *constest.Cluster, faulty int, b []byte) (m *consensus.PhaseMsg, to int, at time.Duration) {
	m = &consensus.PhaseMsg{Kind: int(b[0] % 8), View: uint64(b[1] % 5), Seq: uint64(b[2] % 6), Node: int(int8(b[7]))}
	switch v := b[3] % 6; v {
	case 0:
	case 5:
		m.Digest = crypto.Hash([]byte{b[3]})
	default:
		val := constest.Val(fmt.Sprintf("v%d", v-1))
		m.Digest, m.Data = val.Digest, val.Data
	}
	own := signCert(c, faulty, m.View, m.Seq, m.Digest)
	switch b[5] % 3 {
	case sigJunk:
		m.Sig = crypto.Signature("junk")
	case sigOwn:
		m.Sig = own
	}
	junk := types.NodeSig{Node: int(b[7] % 4), Sig: crypto.Signature("junk")}
	switch b[6] % 5 {
	case certJunk:
		m.Certs = []types.NodeSig{junk, junk, junk}
	case certRepeated:
		m.Certs = []types.NodeSig{{Node: faulty, Sig: own}, {Node: faulty, Sig: own}, {Node: faulty, Sig: own}}
	case certOutsiders:
		m.Certs = []types.NodeSig{{Node: faulty, Sig: own}, {Node: -1, Sig: own}}
		for _, o := range outsiders {
			m.Certs = append(m.Certs, types.NodeSig{Node: o, Sig: signCert(c, o, m.View, m.Seq, m.Digest)})
		}
	case certMixed:
		m.Certs = []types.NodeSig{{Node: faulty, Sig: own}, junk, {Node: 0, Sig: crypto.Signature("junk")}}
	}
	to = int(b[4] % 4)
	if to == faulty {
		to = -1
	}
	return m, to, 500*time.Microsecond + time.Duration(b[4]>>2)*50*time.Microsecond
}
