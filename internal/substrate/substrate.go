// Package substrate is the one base environment every simulated framework is
// deployed on, so that all of them share identical network, crypto costs and
// workload plumbing (the paper's normalisation, §6). It has two halves:
//
//   - Engine: the event engine, the network with its tracer, the membership
//     scheme and the metrics collector. One Engine can carry several
//     deployments (a sharded run).
//   - Deployment: one cluster's place on an Engine — endpoint registration
//     that owns datacenter placement, the consensus group and
//     per-organization endpoint rosters, the client registry with load
//     submission, and the safety-violation log. A framework's Cluster embeds
//     it and adds its own node types.
//
// Config is the part of a deployment's configuration every framework shares
// (the frameworks' own Config types embed it), with the one setting-A default
// and the one check of it. The package also holds the one protocol-by-name
// factory (NewReplica). Nothing here branches on which framework is deployed.
package substrate

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/hotstuff"
	"github.com/bidl-framework/bidl/internal/consensus/pbft"
	"github.com/bidl-framework/bidl/internal/consensus/raft"
	"github.com/bidl-framework/bidl/internal/consensus/sbft"
	"github.com/bidl-framework/bidl/internal/consensus/zyzzyva"
	"github.com/bidl-framework/bidl/internal/cost"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/simhost"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/types"
)

// Config is what every framework's deployment is parameterized by: cluster
// shape, ordering-service batching and timeouts, cost model, network and
// seed. Which protocols a framework accepts and how many consensus
// nodes tolerate F faults are the framework's own rules.
type Config struct {
	// NumOrgs organizations with PerOrg nodes each (BIDL normal nodes,
	// baseline peers).
	NumOrgs int
	PerOrg  int
	// NumConsensus consensus nodes (BIDL) or orderers (baselines)
	// tolerating F faults.
	NumConsensus int
	F            int
	// Protocol names the consensus protocol (see the Proto* names).
	Protocol string

	// BlockSize is the number of transactions per block (paper: 500).
	BlockSize int
	// BlockTimeout proposes a partial block when it elapses (must be > 0).
	BlockTimeout time.Duration
	// ViewTimeout is the consensus progress timeout.
	ViewTimeout time.Duration

	// Costs is the virtual CPU cost model.
	Costs cost.Model
	// Topology describes the network; NumDCs spreads nodes round-robin
	// over that many datacenters.
	Topology simnet.Topology
	NumDCs   int
	// Seed drives all simulation randomness.
	Seed int64

	// Tracer, when non-nil, records per-transaction lifecycle spans and
	// node/link telemetry for the whole cluster (see internal/trace). Nil
	// disables tracing at zero cost.
	Tracer *trace.Tracer
}

// DefaultConfig mirrors the paper's evaluation setting A: four consensus
// nodes (f=1) and 50 organizations with one node each, 500-txn blocks, in
// one datacenter. Protocol is left to the framework.
func DefaultConfig() Config {
	return Config{
		NumOrgs:      50,
		PerOrg:       1,
		NumConsensus: 4,
		F:            1,
		BlockSize:    500,
		BlockTimeout: 10 * time.Millisecond,
		ViewTimeout:  150 * time.Millisecond,
		Costs:        cost.Default(),
		Topology:     simnet.DefaultTopology(),
		NumDCs:       1,
		Seed:         1,
	}
}

// Validate reports the first error in the shared fields, prefixed with the
// framework's package name. The framework applies its own derivations
// (NumConsensus from F) first and its own checks after.
func (c Config) Validate(prefix string) error {
	var err error
	switch {
	case c.NumOrgs < 1:
		err = fmt.Errorf("NumOrgs must be >= 1 (got %d)", c.NumOrgs)
	case c.PerOrg < 1:
		err = fmt.Errorf("PerOrg must be >= 1 (got %d)", c.PerOrg)
	case c.NumConsensus < 1:
		err = fmt.Errorf("NumConsensus must be >= 1 (got %d)", c.NumConsensus)
	case c.F < 0:
		err = fmt.Errorf("F must be >= 0 (got %d)", c.F)
	case c.BlockSize < 1:
		err = fmt.Errorf("BlockSize must be >= 1 (got %d)", c.BlockSize)
	case c.BlockTimeout <= 0:
		// Batch timers and persist-vote retries re-arm every BlockTimeout
		// (a deposed orderer with envelopes queued, a normal node waiting
		// for votes): at zero they spin at one virtual instant and Run
		// never returns.
		err = fmt.Errorf("BlockTimeout must be > 0 (got %s)", c.BlockTimeout)
	case c.ViewTimeout < 0:
		err = fmt.Errorf("ViewTimeout must be >= 0 (got %s)", c.ViewTimeout)
	case c.NumDCs < 0:
		err = fmt.Errorf("NumDCs must be >= 0 (got %d)", c.NumDCs)
	default:
		err = c.Topology.Validate()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return nil
}

// Engine is the simulation a deployment runs on.
type Engine struct {
	Sim       *simnet.Sim
	Net       *simnet.Network
	Scheme    crypto.Scheme
	Collector *metrics.Collector
	// Tracer is the network's tracer (nil when tracing is off).
	Tracer *trace.Tracer
}

// NewEngine builds the engine cfg asks for (Seed, Topology, Tracer). domain
// keys the membership scheme, so frameworks never share signing secrets.
func NewEngine(domain string, cfg Config) *Engine {
	sim := simnet.NewSim(cfg.Seed)
	net := simnet.NewNetwork(sim, cfg.Topology)
	net.SetTracer(cfg.Tracer)
	return &Engine{
		Sim:       sim,
		Net:       net,
		Scheme:    crypto.NewHMACScheme([]byte(fmt.Sprintf("%s-%d", domain, cfg.Seed))),
		Collector: metrics.NewCollector(),
		Tracer:    cfg.Tracer,
	}
}

// At schedules fn at virtual time t — the hook closed-loop load controllers
// use to observe mid-run state and reschedule themselves.
func (e *Engine) At(t time.Duration, fn func()) { e.Sim.At(t, fn) }

// Run advances the simulation to absolute virtual time t.
func (e *Engine) Run(t time.Duration) { e.Sim.RunUntil(t) }

// Metrics returns the run's metrics collector.
func (e *Engine) Metrics() *metrics.Collector { return e.Collector }

// IdentityScheme returns the membership crypto scheme clients register with.
func (e *Engine) IdentityScheme() crypto.Scheme { return e.Scheme }

// VirtualEvents returns the number of discrete events executed so far.
func (e *Engine) VirtualEvents() uint64 { return e.Sim.Events() }

// Submitted records that the client at endpoint ep handed transaction id to
// its framework at virtual time at. Submitted and Notified are the only
// writers of a transaction's two ends — the collector's record and the
// trace's submit/notified marks — so the two stores cannot disagree about
// which transactions entered and left.
func (e *Engine) Submitted(id types.TxID, ep simnet.NodeID, at time.Duration) {
	e.Collector.Submitted(id, at)
	e.Tracer.TxStage(id, trace.StageSubmit, int(ep), at)
}

// Notified records that the client at ep learned id's outcome at time at:
// a commit notice, or an abort the client decided itself.
func (e *Engine) Notified(id types.TxID, ep simnet.NodeID, at time.Duration, aborted bool) {
	e.Collector.Committed(id, at, aborted)
	e.Tracer.TxStage(id, trace.StageNotified, int(ep), at)
}

// Client is what the registry needs from a framework's client node.
type Client interface {
	simnet.Handler
	// Pending returns how many submitted transactions await their commit.
	Pending() int
	// Submit starts the framework's submission path for txns.
	Submit(ctx *simnet.Context, txns []*types.Transaction)
}

type clientEntry struct {
	node Client
	ep   *simnet.Endpoint
}

// Deployment is one cluster's place on an Engine.
type Deployment struct {
	*Engine
	// Label prefixes every endpoint name, so deployments sharing an Engine
	// stay apart; embedders namespace their multicast groups with it too.
	Label string
	// Cons is the consensus group; Colocated lists the endpoints an embedder
	// registered on the consensus members' servers (BIDL's sequencers, in
	// member order); OrgEps[o] lists organization o's endpoints in
	// registration order.
	Cons      simhost.Group
	Colocated []*simnet.Endpoint
	OrgEps    [][]*simnet.Endpoint
	// Keys names the world-state keys of the deployment once for all its
	// replicas' states (ledger.NewStateOn), Hashes the transaction hashes its
	// nodes index (DESIGN.md §7.1).
	Keys   *dense.Table[string]
	Hashes *dense.Table[types.TxID]

	numDCs, placed int
	clients        map[crypto.Identity]clientEntry

	violationsMu sync.Mutex
	violations   []string
}

// NewDeployment places the cluster cfg describes on e. Nodes spread
// round-robin over cfg.NumDCs datacenters; identity names the consensus
// members in the scheme.
func NewDeployment(e *Engine, label string, cfg Config, identity func(int) crypto.Identity) *Deployment {
	return &Deployment{
		Engine:  e,
		Label:   label,
		Cons:    simhost.Group{Sim: e.Sim, Scheme: e.Scheme, Tracer: e.Tracer, Identity: identity},
		Keys:    dense.NewTable[string](),
		Hashes:  dense.NewTable[types.TxID](),
		numDCs:  cfg.NumDCs,
		clients: make(map[crypto.Identity]clientEntry),
	}
}

// nextDC deals datacenters round-robin in registration order.
func (d *Deployment) nextDC() int {
	dc := 0
	if d.numDCs > 1 {
		dc = d.placed % d.numDCs
	}
	d.placed++
	return dc
}

// AddConsensus registers node as the next consensus member (next
// datacenter) and binds its host transport h to the group.
func (d *Deployment) AddConsensus(h *simhost.Host, name string, node simnet.Handler) {
	d.Cons.Join(h, d.Net.Register(d.Label+name, d.nextDC(), node))
}

// AddOrgNode registers the next node of organization org in the next
// datacenter.
func (d *Deployment) AddOrgNode(org int, name string, node simnet.Handler) *simnet.Endpoint {
	ep := d.Net.Register(d.Label+name, d.nextDC(), node)
	for len(d.OrgEps) <= org {
		d.OrgEps = append(d.OrgEps, nil)
	}
	d.OrgEps[org] = append(d.OrgEps[org], ep)
	return ep
}

// HasClient reports whether id already has a client endpoint.
func (d *Deployment) HasClient(id crypto.Identity) bool {
	_, ok := d.clients[id]
	return ok
}

// AddClient registers id's client endpoint (datacenter 0).
// The identity must already exist in the scheme: the workload generator
// registers its clients.
func (d *Deployment) AddClient(id crypto.Identity, node Client) *simnet.Endpoint {
	ep := d.Net.Register(d.Label+"client-"+string(id), 0, node)
	d.clients[id] = clientEntry{node: node, ep: ep}
	return ep
}

// ClientEndpoint returns a registered client's endpoint id.
func (d *Deployment) ClientEndpoint(id crypto.Identity) (simnet.NodeID, bool) {
	cl, ok := d.clients[id]
	if !ok {
		return 0, false
	}
	return cl.ep.ID(), true
}

// CommitNotice tells a client the outcomes of its transactions in one block.
type CommitNotice struct {
	Entries []CommitEntry
}

// CommitEntry is one transaction's outcome.
type CommitEntry struct {
	TxID    types.TxID
	Aborted bool
}

// Size implements simnet.Message.
func (m *CommitNotice) Size() int { return 16 + len(m.Entries)*33 }

// SampleVerify is how many payloads per agreed block a BIDL consensus node or
// an HLF orderer signature-checks to catch a garbage-proposing leader (Table 4 S2).
const SampleVerify = 8

// Notify sends each client its entries of one block as a CommitNotice, in
// identity order; a client without an endpoint here is skipped.
func (d *Deployment) Notify(ctx *simnet.Context, notices map[crypto.Identity][]CommitEntry) {
	clients := make([]crypto.Identity, 0, len(notices))
	for cl := range notices {
		clients = append(clients, cl)
	}
	slices.Sort(clients)
	for _, cl := range clients {
		if ep, ok := d.ClientEndpoint(cl); ok {
			ctx.Send(ep, &CommitNotice{Entries: notices[cl]})
		}
	}
}

// SubmitAt schedules transactions for submission by their own clients at
// virtual time at. Transactions of a client without an endpoint are skipped.
func (d *Deployment) SubmitAt(at time.Duration, txns ...*types.Transaction) {
	byClient := make(map[crypto.Identity][]*types.Transaction)
	var order []crypto.Identity
	for _, tx := range txns {
		// Fill the lazy ID/signing/size caches before the transaction is
		// shared (see Transaction.Warm).
		tx.Warm()
		if _, ok := byClient[tx.Client]; !ok {
			order = append(order, tx.Client)
		}
		byClient[tx.Client] = append(byClient[tx.Client], tx)
	}
	d.Sim.At(at, func() {
		for _, id := range order {
			if cl, ok := d.clients[id]; ok {
				cl.node.Submit(simnet.NewInjectedContext(d.Net, cl.ep), byClient[id])
			}
		}
	})
}

// InFlight returns the count of submitted transactions whose clients have
// not yet seen a commit notification.
func (d *Deployment) InFlight() int {
	n := 0
	for _, cl := range d.clients {
		n += cl.node.Pending()
	}
	return n
}

// Violation records a safety breach detected during simulation.
func (d *Deployment) Violation(msg string) {
	d.violationsMu.Lock()
	d.violations = append(d.violations, msg)
	d.violationsMu.Unlock()
}

// Violations returns the recorded breaches for the end-of-run audit, in the
// order the run detected them.
func (d *Deployment) Violations() []string {
	d.violationsMu.Lock()
	defer d.violationsMu.Unlock()
	return d.violations
}

// Protocol names accepted by NewReplica.
const (
	ProtoPBFT     = "bft-smart" // PBFT three-phase, the paper's default
	ProtoHotStuff = "hotstuff"
	ProtoZyzzyva  = "zyzzyva"
	ProtoSBFT     = "sbft"
	ProtoRaft     = "raft" // crash-fault tolerant
)

// NewReplica instantiates the named consensus protocol on host; an empty or
// unknown name selects PBFT (configurations are validated before they get
// here).
func NewReplica(name string, cfg consensus.Config, host consensus.Host) consensus.Replica {
	switch name {
	case ProtoHotStuff:
		return hotstuff.New(cfg, host)
	case ProtoZyzzyva:
		return zyzzyva.New(cfg, host)
	case ProtoSBFT:
		return sbft.New(cfg, host)
	case ProtoRaft:
		return raft.New(cfg, host)
	default:
		return pbft.New(cfg, host)
	}
}
