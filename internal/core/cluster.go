package core

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

// cnIdentity names consensus node i in the membership registry.
func cnIdentity(i int) crypto.Identity {
	return crypto.Identity("cn" + strconv.Itoa(i))
}

// Cluster is a complete simulated BIDL deployment: consensus nodes with
// co-located sequencers, organizations of normal nodes, and clients, placed
// on the shared deployment substrate (engine, network, scheme, collector,
// endpoint placement, client registry, violation log: the embedded
// substrate.Deployment).
type Cluster struct {
	*substrate.Deployment
	Cfg      Config
	Registry *contract.Registry

	ConsNodes  []*ConsNode
	Sequencers []*SequencerNode
	Orgs       [][]*NormalNode

	policy   consensus.LeaderPolicy
	keyOwner contract.KeyOwnerFunc

	// Multicast group names, namespaced by the deployment's Label so clusters
	// sharing one network (sharded deployments) cannot hear each other's
	// traffic. For a standalone cluster these equal the package constants.
	groupTxns, groupBlocks, groupPersist string

	// stream is the normal nodes' shared PERSIST tally, world their
	// committed state; probe the PersistProbe set when the cluster was built
	// (tests only).
	stream *persistStream
	world  *world
	probe  *PersistProbe
}

// NewCluster builds a standalone BIDL deployment on an engine of its own.
// Client identities must be registered afterwards via RegisterClients before
// transactions from them verify.
func NewCluster(cfg Config) *Cluster {
	return NewClusterOn(NewEngine(cfg), "", cfg)
}

// NewEngine builds the engine for BIDL deployments of cfg.
func NewEngine(cfg Config) *substrate.Engine {
	return substrate.NewEngine("bidl", cfg.Config)
}

// NewClusterOn builds a BIDL deployment on an engine the caller owns — the
// sharded harness hosts several on one (DESIGN.md §14). label namespaces the
// cluster's endpoint names and multicast groups; cfg's engine-level fields
// (Topology, Tracer) were consumed by NewEngine.
func NewClusterOn(eng *substrate.Engine, label string, cfg Config) *Cluster {
	if cfg.NumConsensus == 0 {
		cfg.NumConsensus = 3*cfg.F + 1
	}
	if cfg.F == 0 && cfg.NumConsensus >= 4 {
		cfg.F = (cfg.NumConsensus - 1) / 3
	}
	reg := contract.NewRegistry()
	reg.Deploy(contract.SmallBank{})
	reg.Deploy(contract.Settlement{})
	reg.Deploy(contract.XShard{})

	seed := crypto.Hash([]byte(fmt.Sprintf("leader-rotation-%d", cfg.Seed)))
	c := &Cluster{
		Deployment: substrate.NewDeployment(eng, label, cfg.Config, cnIdentity),
		Cfg:        cfg,
		Registry:   reg,
		// BIDL's unpredictable epoch rotation (§4.6).
		policy:       &consensus.RandomEpoch{N: cfg.NumConsensus, Seed: seed},
		keyOwner:     contract.SmallBankKeyOwner(cfg.NumOrgs),
		groupTxns:    label + groupTxns,
		groupBlocks:  label + groupBlocks,
		groupPersist: label + groupPersist,
		probe:        probe,
	}

	// Consensus nodes + their co-located sequencers.
	consCfg := simhost.Config(cfg.Costs, cfg.NumConsensus, cfg.F, c.policy, cfg.ViewTimeout)
	for i := 0; i < cfg.NumConsensus; i++ {
		cn := newConsNode(c, i%cfg.NumOrgs)
		c.AddConsensus(&cn.Host, "cn"+strconv.Itoa(i), cn)
		consCfg.Self = i
		cn.Rep = substrate.NewReplica(cfg.Protocol, consCfg, cn)
		c.ConsNodes = append(c.ConsNodes, cn)

		seqNode := &SequencerNode{c: c, idx: i}
		seqNode.flushTimer = simnet.NewTimer(seqNode.flush)
		// The sequencer shares the consensus node's server: same datacenter,
		// no placement slot of its own.
		seqNode.ep = c.Net.Register(label+"seq"+strconv.Itoa(i), cn.Ep.DC(), seqNode)
		c.Colocated = append(c.Colocated, seqNode.ep)
		c.Sequencers = append(c.Sequencers, seqNode)

		c.Net.Join(c.groupTxns, cn.Ep.ID())
		c.Net.Join(c.groupBlocks, cn.Ep.ID())
	}

	c.world = &world{}
	if probe == nil || !probe.Private {
		c.stream = newPersistStream(cfg.quorum(), cfg.NumConsensus, cfg.NumOrgs*cfg.PerOrg, c.Hashes, probe)
		c.world = newWorld(c.Keys)
	}

	// Organizations of normal nodes.
	for o := 0; o < cfg.NumOrgs; o++ {
		c.Scheme.Register(crypto.Identity(types.OrgName(o)))
		var orgNodes []*NormalNode
		for j := 0; j < cfg.PerOrg; j++ {
			nn := newNormalNode(c, o, j, cfg.Seed*1_000_003+int64(o*64+j))
			nn.ep = c.AddOrgNode(o, fmt.Sprintf("%s-nn%d", types.OrgName(o), j), nn)
			c.Net.Join(c.groupTxns, nn.ep.ID())
			c.Net.Join(c.groupBlocks, nn.ep.ID())
			c.Net.Join(c.groupPersist, nn.ep.ID())
			orgNodes = append(orgNodes, nn)
		}
		c.Orgs = append(c.Orgs, orgNodes)
	}
	return c
}

// multicast sends one of the three pipeline messages (sequenced batch, block,
// PERSIST) to group: one IP multicast, or with DisableMulticast one unicast
// per member ("BIDL-opt-disabled", Fig 9).
func (c *Cluster) multicast(ctx *simnet.Context, group string, msg simnet.Message) {
	if c.Cfg.DisableMulticast {
		ctx.MulticastUnicast(group, msg)
	} else {
		ctx.Multicast(group, msg)
	}
}

// RegisterClients creates client endpoints for the given identities.
// Identities must already exist in the scheme (the workload generator
// registers them).
func (c *Cluster) RegisterClients(ids []crypto.Identity) {
	for _, id := range ids {
		if !c.HasClient(id) {
			c.newClient(id)
		}
	}
}

func (c *Cluster) newClient(id crypto.Identity) *ClientNode {
	cl := &ClientNode{c: c, id: id, pending: make(map[types.TxID]*types.Transaction)}
	cl.retryTimer = simnet.NewTimer(cl.retransmit)
	cl.ep = c.AddClient(id, cl)
	return cl
}

// RegisterCoordinator creates a quiet client endpoint for id and returns its
// address: its submissions and notifications bypass the metrics collector
// and tracer, and hook observes every commit-notice entry it receives. The
// sharded harness attaches its 2PC coordinators this way (DESIGN.md §14).
func (c *Cluster) RegisterCoordinator(id crypto.Identity, hook func(*simnet.Context, substrate.CommitEntry)) simnet.NodeID {
	cl := c.newClient(id)
	cl.hook = hook
	cl.quiet = true
	return cl.ep.ID()
}

// Prepopulate applies fn to every normal node's committed state (workload
// account seeding).
func (c *Cluster) Prepopulate(fn func(*ledger.State)) {
	for _, org := range c.Orgs {
		for _, nn := range org {
			fn(nn.base)
		}
	}
}

// LeaderIndex returns the consensus cluster's current leader: the policy's
// leader for the highest view any consensus node occupies (every hosted
// protocol derives its Leader() from the policy and its view).
func (c *Cluster) LeaderIndex() int {
	var hi uint64
	for _, cn := range c.ConsNodes {
		if v := cn.Rep.View(); v > hi {
			hi = v
		}
	}
	return c.policy.Leader(hi)
}

// SetLeaderEvil flips the current leader's sequencer into garbage mode
// (Table 4 S2: while that node leads, every sequenced transaction is replaced
// by an invalid one), or clears the flag on every sequencer.
func (c *Cluster) SetLeaderEvil(on bool) {
	if on {
		c.Sequencers[c.LeaderIndex()].Garbage = true
		return
	}
	for _, sq := range c.Sequencers {
		sq.Garbage = false
	}
}

// CheckSafety validates the paper's safety guarantee across the whole
// deployment: all correct nodes hold prefix-consistent ledgers, and normal
// nodes within an organization that reached the same height hold identical
// world states. The block-by-block comparison itself is shared with the
// fabric baselines (ledger.CheckConsistency); this method only assembles
// the views: consensus node 0 is the prefix reference, and each
// organization forms one state-agreement group.
func (c *Cluster) CheckSafety() error {
	ledgers := make([]ledger.SafetyView, 0, len(c.ConsNodes)+c.Cfg.NumOrgs*c.Cfg.PerOrg)
	for i, cn := range c.ConsNodes {
		ledgers = append(ledgers, ledger.SafetyView{
			Label:  fmt.Sprintf("%sconsensus node %d", c.Label, i),
			Blocks: cn.blocks,
		})
	}
	groups := make([][]ledger.SafetyView, 0, len(c.Orgs))
	for o, org := range c.Orgs {
		group := make([]ledger.SafetyView, 0, len(org))
		for j, nn := range org {
			v := ledger.SafetyView{
				Label:  fmt.Sprintf("%snormal node %s/%d", c.Label, types.OrgName(o), j),
				Blocks: nn.blocks,
				State:  nn.base,
				Height: nn.commitHeight,
			}
			ledgers = append(ledgers, v)
			group = append(group, v)
		}
		groups = append(groups, group)
	}
	return ledger.CheckConsistency("core", c.Violations(), ledgers, groups)
}

// AttachAdversary registers an extra endpoint in datacenter dc, joined to
// the transaction multicast group so it observes sequencer traffic and can
// broadcast crafted transactions (the §6.2 malicious broadcaster). The
// adversary is NOT a member: it holds no registered identity.
func (c *Cluster) AttachAdversary(name string, dc int, h simnet.Handler) *simnet.Endpoint {
	ep := c.Net.Register(name, dc, h)
	c.Net.Join(c.groupTxns, ep.ID())
	return ep
}

// TxnGroup names the sequencer multicast group (for adversaries).
func (c *Cluster) TxnGroup() string { return c.groupTxns }

// LedgerDigest returns consensus node 0's chained head-of-ledger digest.
// Because every block digest folds in its predecessor, two runs with equal
// digests committed the exact same block sequence — a compact fingerprint
// for determinism tests.
func (c *Cluster) LedgerDigest() crypto.Digest {
	return c.ConsNodes[0].blocks.LastDigest()
}

// TotalCommitHeight returns the minimum commit height across normal nodes.
func (c *Cluster) TotalCommitHeight() uint64 {
	min := ^uint64(0)
	for _, org := range c.Orgs {
		for _, nn := range org {
			if nn.commitHeight < min {
				min = nn.commitHeight
			}
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}
