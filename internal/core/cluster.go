package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/hotstuff"
	"github.com/bidl-framework/bidl/internal/consensus/pbft"
	"github.com/bidl-framework/bidl/internal/consensus/sbft"
	"github.com/bidl-framework/bidl/internal/consensus/zyzzyva"
	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// cnIdentity names consensus node i in the membership registry.
func cnIdentity(i int) crypto.Identity {
	return crypto.Identity("cn" + strconv.Itoa(i))
}

// orgName returns organization o's registry name ("org<o>").
func orgName(o int) string { return "org" + strconv.Itoa(o) }

// orgIndex parses an organization name back to its index (-1 if malformed).
func orgIndex(name string) int {
	if len(name) < 4 || name[:3] != "org" {
		return -1
	}
	v, err := strconv.Atoi(name[3:])
	if err != nil {
		return -1
	}
	return v
}

// Cluster is a complete simulated BIDL deployment: consensus nodes with
// co-located sequencers, organizations of normal nodes, and clients, wired
// over a simnet datacenter.
type Cluster struct {
	Cfg       Config
	Sim       *simnet.Sim
	Net       *simnet.Network
	Scheme    crypto.Scheme
	Registry  *contract.Registry
	Collector *metrics.Collector

	ConsNodes  []*ConsNode
	Sequencers []*SequencerNode
	Orgs       [][]*NormalNode
	Clients    map[crypto.Identity]*ClientNode

	cnIndex   map[simnet.NodeID]int
	clientEps map[crypto.Identity]simnet.NodeID
	policy    consensus.LeaderPolicy
	keyOwner  contract.KeyOwnerFunc
	tracer    *trace.Tracer

	// Multicast group names, namespaced by Cfg.Label so clusters sharing
	// one Network (sharded deployments) cannot hear each other's traffic.
	// For a standalone cluster these equal the package constants.
	groupTxns, groupBlocks, groupPersist string
	// ownsSim is false when the Sim/Net were injected via Config: the owner
	// (the sharded harness) configured partitions and drives the run.
	ownsSim bool

	violationsMu sync.Mutex
	violations   []string
}

// NewCluster builds a BIDL deployment from cfg. Client identities must be
// registered afterwards via RegisterClients before transactions from them
// verify.
func NewCluster(cfg Config) *Cluster {
	if cfg.NumConsensus == 0 {
		cfg.NumConsensus = 3*cfg.F + 1
	}
	if cfg.F == 0 && cfg.NumConsensus >= 4 {
		cfg.F = (cfg.NumConsensus - 1) / 3
	}
	sim, net, scheme := cfg.Sim, cfg.Net, cfg.Scheme
	ownsSim := sim == nil
	if ownsSim {
		sim = simnet.NewSim(cfg.Seed)
		// Hub-and-shards PDES partitioning: consensus nodes, sequencers, and
		// clients share partition 0 (they read each other's state mid-run);
		// organizations of normal nodes shard over the remaining partitions.
		sim.SetPartitions(simnet.PartitionCount(cfg.SimWorkers, cfg.NumOrgs))
		sim.SetWorkers(cfg.SimWorkers)
		net = simnet.NewNetwork(sim, cfg.Topology)
		net.SetTracer(cfg.Tracer)
		scheme = crypto.NewHMACScheme([]byte(fmt.Sprintf("bidl-%d", cfg.Seed)))
	}
	nparts := sim.NumPartitions()
	reg := contract.NewRegistry()
	reg.Deploy(contract.SmallBank{})
	reg.Deploy(contract.Settlement{})
	reg.Deploy(contract.XShard{})

	collector := cfg.Collector
	if collector == nil {
		collector = metrics.NewCollector()
	}
	seed := crypto.Hash([]byte(fmt.Sprintf("leader-rotation-%d", cfg.Seed)))
	c := &Cluster{
		Cfg:       cfg,
		Sim:       sim,
		Net:       net,
		Scheme:    scheme,
		Registry:  reg,
		Collector: collector,
		Clients:   make(map[crypto.Identity]*ClientNode),
		cnIndex:   make(map[simnet.NodeID]int),
		clientEps: make(map[crypto.Identity]simnet.NodeID),
		// BIDL's unpredictable epoch rotation (§4.6).
		policy:       &consensus.RandomEpoch{N: cfg.NumConsensus, Seed: seed},
		keyOwner:     cfg.KeyOwner,
		tracer:       cfg.Tracer,
		groupTxns:    cfg.Label + groupTxns,
		groupBlocks:  cfg.Label + groupBlocks,
		groupPersist: cfg.Label + groupPersist,
		ownsSim:      ownsSim,
	}
	if c.keyOwner == nil {
		c.keyOwner = contract.SmallBankKeyOwner(cfg.NumOrgs)
	}

	dc := func(i int) int {
		if cfg.NumDCs <= 1 {
			return 0
		}
		return i % cfg.NumDCs
	}

	consCfg := consensus.Config{
		N: cfg.NumConsensus, F: cfg.F,
		Policy:           c.policy,
		ViewTimeout:      cfg.ViewTimeout,
		SigVerify:        cfg.Costs.SigVerify,
		SigSign:          cfg.Costs.SigSign,
		MACVerify:        cfg.Costs.MACVerify,
		MACCompute:       cfg.Costs.MACCompute,
		ThresholdSign:    cfg.Costs.ThresholdSign,
		ThresholdCombine: cfg.Costs.ThresholdCombine,
	}

	node := 0
	// Consensus nodes + their co-located sequencers.
	for i := 0; i < cfg.NumConsensus; i++ {
		cn := newConsNode(c, i, i%cfg.NumOrgs)
		cn.ep = net.Register(fmt.Sprintf("%scn%d", cfg.Label, i), dc(node), cn)
		node++
		c.cnIndex[cn.ep.ID()] = i
		scheme.Register(cnIdentity(i))
		rcfg := consCfg
		rcfg.Self = i
		cn.replica = newReplica(cfg.Protocol, rcfg, cn)
		c.ConsNodes = append(c.ConsNodes, cn)

		seqNode := &SequencerNode{c: c, idx: i}
		// The sequencer shares the consensus node's server (same DC).
		seqNode.ep = net.Register(fmt.Sprintf("%sseq%d", cfg.Label, i), cn.ep.DC(), seqNode)
		c.Sequencers = append(c.Sequencers, seqNode)

		net.Join(c.groupTxns, cn.ep.ID())
		net.Join(c.groupBlocks, cn.ep.ID())
	}

	// Organizations of normal nodes.
	for o := 0; o < cfg.NumOrgs; o++ {
		scheme.Register(crypto.Identity(orgName(o)))
		var orgNodes []*NormalNode
		for j := 0; j < cfg.NormalPerOrg; j++ {
			nn := newNormalNode(c, o, j, cfg.Seed*1_000_003+int64(o*64+j))
			nn.ep = net.RegisterPart(fmt.Sprintf("%s%s-nn%d", cfg.Label, orgName(o), j), dc(node),
				simnet.ShardPartition(cfg.OrgPartitionOffset+o, nparts), nn)
			node++
			net.Join(c.groupTxns, nn.ep.ID())
			net.Join(c.groupBlocks, nn.ep.ID())
			net.Join(c.groupPersist, nn.ep.ID())
			orgNodes = append(orgNodes, nn)
		}
		c.Orgs = append(c.Orgs, orgNodes)
	}
	return c
}

// newReplica instantiates the configured BFT protocol.
func newReplica(name string, cfg consensus.Config, host consensus.Host) consensus.Replica {
	switch name {
	case ProtoHotStuff:
		return hotstuff.New(cfg, host)
	case ProtoZyzzyva:
		return zyzzyva.New(cfg, host)
	case ProtoSBFT:
		return sbft.New(cfg, host)
	default:
		return pbft.New(cfg, host)
	}
}

// RegisterClients creates client endpoints for the given identities.
// Identities must already exist in the scheme (the workload generator
// registers them).
func (c *Cluster) RegisterClients(ids []crypto.Identity) {
	for _, id := range ids {
		if _, ok := c.Clients[id]; ok {
			continue
		}
		cl := &ClientNode{c: c, id: id, pending: make(map[types.TxID]*types.Transaction)}
		cl.ep = c.Net.Register(c.Cfg.Label+"client-"+string(id), 0, cl)
		c.Clients[id] = cl
		c.clientEps[id] = cl.ep.ID()
	}
}

// SetClientHook marks an already-registered client as a quiet coordinator
// endpoint: its submissions and notifications bypass the metrics collector
// and tracer, and hook observes every commit-notice entry it receives. The
// sharded harness attaches its 2PC coordinators this way (DESIGN.md §14).
func (c *Cluster) SetClientHook(id crypto.Identity, hook func(*simnet.Context, CommitEntry)) {
	cl := c.Clients[id]
	cl.hook = hook
	cl.quiet = true
}

// ClientEndpoint returns a registered client's endpoint ID (the address the
// sharded harness uses to hand decision batches to a shard's coordinator).
func (c *Cluster) ClientEndpoint(id crypto.Identity) simnet.NodeID { return c.clientEps[id] }

// Prepopulate applies fn to every normal node's committed state (workload
// account seeding).
func (c *Cluster) Prepopulate(fn func(*ledger.State)) {
	for _, org := range c.Orgs {
		for _, nn := range org {
			fn(nn.base)
		}
	}
}

// SubmitAt schedules transactions for submission by their own clients at
// virtual time at.
func (c *Cluster) SubmitAt(at time.Duration, txns ...*types.Transaction) {
	byClient := make(map[crypto.Identity][]*types.Transaction)
	var order []crypto.Identity
	for _, tx := range txns {
		// Fill the lazy ID/signing/size caches before the transaction can
		// cross a partition boundary (see Transaction.Warm).
		tx.Warm()
		if _, ok := byClient[tx.Client]; !ok {
			order = append(order, tx.Client)
		}
		byClient[tx.Client] = append(byClient[tx.Client], tx)
	}
	c.Sim.At(at, func() {
		for _, id := range order {
			cl, ok := c.Clients[id]
			if !ok {
				continue
			}
			ctx := simnet.NewInjectedContext(c.Net, cl.ep)
			cl.submit(ctx, byClient[id])
		}
	})
}

// At schedules fn at virtual time t — the hook closed-loop load
// controllers use to observe mid-run cluster state and reschedule
// themselves. Only legal on the serial engine once the run has started
// (Sim.At rejects scheduling during parallel windows).
func (c *Cluster) At(t time.Duration, fn func()) { c.Sim.At(t, fn) }

// InFlight returns the cluster-wide count of submitted transactions whose
// clients have not yet seen a commit notification.
func (c *Cluster) InFlight() int {
	n := 0
	for _, cl := range c.Clients {
		n += cl.Pending()
	}
	return n
}

// Run advances the simulation to absolute virtual time t.
func (c *Cluster) Run(t time.Duration) { c.Sim.RunUntil(t) }

// leaderIdx returns the consensus cluster's current leader: the policy's
// leader for the highest view any consensus node occupies (every hosted
// protocol derives its Leader() from the policy and its view).
func (c *Cluster) leaderIdx() int {
	var hi uint64
	for _, cn := range c.ConsNodes {
		if v := cn.replica.View(); v > hi {
			hi = v
		}
	}
	return c.policy.Leader(hi)
}

// LeaderIndex exposes the current leader for tests and attacks.
func (c *Cluster) LeaderIndex() int { return c.leaderIdx() }

// safetyViolation records an invariant breach detected during simulation.
// Node handlers in concurrent partitions may report simultaneously, hence
// the lock; CheckSafety sorts partitioned runs so the report order is
// independent of partition interleaving.
func (c *Cluster) safetyViolation(msg string) {
	c.violationsMu.Lock()
	c.violations = append(c.violations, msg)
	c.violationsMu.Unlock()
}

// CheckSafety validates the paper's safety guarantee across the whole
// deployment: all correct nodes hold prefix-consistent ledgers, and normal
// nodes within an organization that reached the same height hold identical
// world states. The block-by-block comparison itself is shared with the
// fabric baselines (ledger.CheckConsistency); this method only assembles
// the views: consensus node 0 is the prefix reference, and each
// organization forms one state-agreement group.
func (c *Cluster) CheckSafety() error {
	ledgers := make([]ledger.SafetyView, 0, len(c.ConsNodes)+c.Cfg.NumOrgs*c.Cfg.NormalPerOrg)
	for i, cn := range c.ConsNodes {
		ledgers = append(ledgers, ledger.SafetyView{
			Label:  fmt.Sprintf("%sconsensus node %d", c.Cfg.Label, i),
			Blocks: cn.blocks,
		})
	}
	groups := make([][]ledger.SafetyView, 0, len(c.Orgs))
	for o, org := range c.Orgs {
		group := make([]ledger.SafetyView, 0, len(org))
		for j, nn := range org {
			v := ledger.SafetyView{
				Label:  fmt.Sprintf("%snormal node %s/%d", c.Cfg.Label, orgName(o), j),
				Blocks: nn.blocks,
				State:  nn.base,
				Height: nn.commitHeight,
			}
			ledgers = append(ledgers, v)
			group = append(group, v)
		}
		groups = append(groups, group)
	}
	violations := c.violations
	if c.Sim.NumPartitions() > 1 {
		// Partitioned runs sort for a deterministic report: the multiset of
		// violations is engine-independent but the arrival order is not.
		// Single-partition runs keep the historical event order.
		violations = append([]string(nil), violations...)
		sort.Strings(violations)
	}
	return ledger.CheckConsistency("core", violations, ledgers, groups)
}

// Metrics returns the cluster's metrics collector (the scenario.Harness
// accessor; the Collector field keeps its historical name).
func (c *Cluster) Metrics() *metrics.Collector { return c.Collector }

// IdentityScheme returns the membership crypto scheme clients register with.
func (c *Cluster) IdentityScheme() crypto.Scheme { return c.Scheme }

// VirtualEvents returns the number of discrete events executed so far.
func (c *Cluster) VirtualEvents() uint64 { return c.Sim.Events() }

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
