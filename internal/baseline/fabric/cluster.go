package fabric

import (
	"fmt"
	"strconv"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simhost"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/substrate"
	"github.com/bidl-framework/bidl/internal/types"
)

func ordererIdentity(i int) crypto.Identity {
	return crypto.Identity("orderer" + strconv.Itoa(i))
}

// Cluster is a complete simulated baseline deployment (HLF, FastFabric, or
// StreamChain depending on Config.Variant) on the same deployment substrate
// as the BIDL cluster: orderers are the consensus group, peers the
// organizations' nodes.
type Cluster struct {
	*substrate.Deployment
	Cfg      Config
	Registry *contract.Registry

	Orderers []*Orderer
	Peers    [][]*Peer
	peerIDs  []simnet.NodeID // every peer's endpoint, in Peers order

	policy consensus.LeaderPolicy
	// world is the committed world state every peer's is a view of (DESIGN.md
	// §7.1).
	world *ledger.Shared
}

// NewCluster builds a baseline deployment.
func NewCluster(cfg Config) *Cluster {
	if cfg.NumConsensus == 0 {
		cfg.NumConsensus = 3*cfg.F + 1
	}
	eng := substrate.NewEngine("fabric", cfg.Config)
	reg := contract.NewRegistry()
	reg.Deploy(contract.SmallBank{})
	reg.Deploy(contract.Settlement{})

	c := &Cluster{
		Deployment: substrate.NewDeployment(eng, "", cfg.Config, ordererIdentity),
		Cfg:        cfg,
		Registry:   reg,
		policy:     consensus.RoundRobin{N: cfg.NumConsensus},
	}
	c.world = ledger.NewShared(c.Keys)

	consCfg := simhost.Config(cfg.Costs, cfg.NumConsensus, cfg.F, c.policy, cfg.ViewTimeout)
	for i := 0; i < cfg.NumConsensus; i++ {
		ord := newOrderer(c)
		c.AddConsensus(&ord.Host, "orderer"+strconv.Itoa(i), ord)
		consCfg.Self = i
		ord.Rep = substrate.NewReplica(cfg.Protocol, consCfg, ord)
		c.Orderers = append(c.Orderers, ord)
	}

	for o := 0; o < cfg.NumOrgs; o++ {
		c.Scheme.Register(crypto.Identity(types.OrgName(o)))
		var peers []*Peer
		for j := 0; j < cfg.PerOrg; j++ {
			p := newPeer(c, o, j, cfg.Seed*7_000_003+int64(o*64+j))
			p.ep = c.AddOrgNode(o, fmt.Sprintf("%s-peer%d", types.OrgName(o), j), p)
			c.peerIDs = append(c.peerIDs, p.ep.ID())
			peers = append(peers, p)
		}
		c.Peers = append(c.Peers, peers)
	}
	return c
}

// policyLeader resolves which orderer disseminates a block: the view leader
// for BFT certificates, the current leader under CFT (Raft).
func (c *Cluster) policyLeader(cert *types.Certificate, r consensus.Replica) int {
	if cert == nil {
		return r.Leader()
	}
	return c.policy.Leader(cert.View)
}

// RegisterClients creates client endpoints for the given identities.
func (c *Cluster) RegisterClients(ids []crypto.Identity) {
	for _, id := range ids {
		if !c.HasClient(id) {
			cl := &Client{c: c, id: id, pending: make(map[types.TxID]*pendingTx)}
			cl.ep = c.AddClient(id, cl)
		}
	}
}

// Prepopulate applies fn to every peer's committed state.
func (c *Cluster) Prepopulate(fn func(*ledger.State)) {
	for _, org := range c.Peers {
		for _, p := range org {
			fn(p.state)
		}
	}
}

// SetLeaderEvil makes the current leader's orderer propose invalid
// transactions (Table 4 S2), or clears the flag on every orderer.
func (c *Cluster) SetLeaderEvil(on bool) {
	if on {
		c.Orderers[c.LeaderIndex()].ProposeGarbage = true
		return
	}
	for _, o := range c.Orderers {
		o.ProposeGarbage = false
	}
}

// LeaderIndex returns the current ordering-service leader.
func (c *Cluster) LeaderIndex() int {
	var hi uint64
	leader := 0
	for _, ord := range c.Orderers {
		if v := ord.Rep.View(); v >= hi {
			hi = v
			leader = ord.Rep.Leader()
		}
	}
	return leader
}

// CheckSafety validates that all peers hold prefix-consistent ledgers and
// that peers at equal heights hold identical world states (full
// replication: every peer is in one state-agreement group). The comparison
// itself is shared with the BIDL cluster (ledger.CheckConsistency).
func (c *Cluster) CheckSafety() error {
	views := make([]ledger.SafetyView, 0, c.Cfg.NumOrgs*c.Cfg.PerOrg)
	for _, org := range c.Peers {
		for j, p := range org {
			views = append(views, ledger.SafetyView{
				Label:  fmt.Sprintf("peer %s/%d", p.orgName, j),
				Blocks: p.blocks,
				State:  p.state,
				Height: p.commitHeight,
			})
		}
	}
	return ledger.CheckConsistency("fabric", c.Violations(), views, [][]ledger.SafetyView{views})
}
