// Package trace is the virtual-time tracing and telemetry layer of the BIDL
// reproduction: per-transaction lifecycle spans (client submit → sequencer
// assign → multicast deliver → speculative execute → consensus → persist →
// commit notify), consensus protocol phase marks, and fixed-width time-series
// telemetry for every simulated node (CPU-busy fraction, queue depth, bytes
// in/out, drops) and inter-datacenter link (bytes on wire).
//
// A nil *Tracer is a valid, disabled tracer: every recording method is
// nil-receiver safe, and the simnet hot paths additionally guard with a nil
// check so that disabled tracing adds zero allocations (pinned by
// TestUntracedDeliveryAllocs in internal/simnet).
//
// Because the simulation runs in virtual time, traces are perfectly
// reproducible: two runs with the same seed produce byte-identical exports
// (guarded by TestTraceDeterminism).
package trace

import (
	"fmt"
	"time"
)

// TxID mirrors types.TxID ([32]byte) without importing it: the trace package
// sits below every other internal package so simnet can depend on it.
type TxID = [32]byte

// Stage identifies a step of the transaction pipeline (§3 phases).
type Stage uint8

// Pipeline stages in their nominal order. The recorded order can differ
// (persist overlaps consensus, §4.4); exporters sort by virtual time.
const (
	StageSubmit    Stage = iota // client hands the tx to the framework
	StageSequenced              // sequencer assigns a sequence number
	StageDelivered              // multicast reaches the corresponding org
	StageExecStart              // execution work begins (dequeue → CPU)
	StageExecuted               // speculative execution finishes (Phase 4-1)
	StagePersisted              // persist quorum forms (Phase 4-2)
	StageAgreed                 // consensus orders the tx hash (Phase 3)
	StageNotified               // client receives the commit notice (Phase 5)
	StageXPrepared              // 2PC: all touched shards' prepares resolved (DESIGN.md §14)
	StageXResolved              // 2PC: commit/abort decision applied on all touched shards
	NumStages
)

var stageNames = [NumStages]string{
	"submit", "sequenced", "delivered", "exec-start", "executed", "persisted", "agreed", "notified",
	"x-prepared", "x-resolved",
}

// String returns the stage's export label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage%d", int(s))
}

// StageFromName maps an export label back to its Stage — the inverse of
// String, used by the JSONL reader. The second return is false for unknown
// labels.
func StageFromName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// TxEvent is one lifecycle mark: transaction tx reached stage on node at
// virtual time At.
type TxEvent struct {
	Tx    TxID
	At    time.Duration
	Node  int32
	Stage Stage
}

// PhaseEvent is a consensus protocol phase mark (pre-prepare, prepared,
// committed, QC formation, …) on one replica for one sequence number.
type PhaseEvent struct {
	Name string
	At   time.Duration
	Node int32
	View uint64
	Seq  uint64
}

// NodeBucket aggregates one node's telemetry over one bucket of virtual time.
type NodeBucket struct {
	Busy      time.Duration // CPU time charged within the bucket
	MaxQueue  int           // peak inbox depth observed
	BytesIn   uint64
	BytesOut  uint64
	Delivered uint64 // messages delivered to the handler
	Dropped   uint64 // messages lost (loss, filters, crashed node)
}

// LinkBucket aggregates one directed DC-pair link over one bucket.
type LinkBucket struct {
	Bytes uint64
	Msgs  uint64
}

// Options parameterize a Tracer.
type Options struct {
	// BucketWidth is the telemetry sampling resolution (default 10ms).
	BucketWidth time.Duration
	// SpanCapacity bounds the tx-event ring buffer (default 1<<18 events);
	// once full the oldest events are overwritten and DroppedTxEvents
	// counts. Phase events get a quarter of this capacity.
	SpanCapacity int
}

// ring is a bounded event sink: appending beyond the limit overwrites the
// oldest entry, so a runaway simulation cannot exhaust memory while recent
// history stays complete. The buffer grows lazily up to the limit.
type ring[T any] struct {
	limit   int
	buf     []T
	next    int
	full    bool
	dropped uint64
}

func (r *ring[T]) add(v T) {
	if !r.full {
		r.buf = append(r.buf, v)
		if len(r.buf) >= r.limit {
			r.full = true
		}
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// items returns the buffered events in insertion order.
func (r *ring[T]) items() []T {
	if !r.full || r.next == 0 {
		return r.buf
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// nodeSeries is one node's identity plus its telemetry bucket row.
type nodeSeries struct {
	name    string
	dc      int
	known   bool
	buckets []NodeBucket
}

// linkSeries is one directed DC pair's bucket row.
type linkSeries struct {
	fromDC, toDC int
	buckets      []LinkBucket
}

// Tracer records lifecycle spans, phase marks, and telemetry buckets for one
// simulation. It is not safe for concurrent use (like the Sim it observes);
// distinct simulations use distinct Tracers.
type Tracer struct {
	width   time.Duration
	txs     ring[TxEvent]
	phases  ring[PhaseEvent]
	nodes   []*nodeSeries
	links   map[int]*linkSeries // keyed fromDC*4096+toDC, like simnet pipes
	horizon time.Duration       // latest virtual time observed
}

// New returns an enabled tracer.
func New(o Options) *Tracer {
	if o.BucketWidth <= 0 {
		o.BucketWidth = 10 * time.Millisecond
	}
	if o.SpanCapacity <= 0 {
		o.SpanCapacity = 1 << 18
	}
	phaseCap := o.SpanCapacity / 4
	if phaseCap < 1 {
		phaseCap = 1
	}
	return &Tracer{
		width:  o.BucketWidth,
		txs:    ring[TxEvent]{limit: o.SpanCapacity},
		phases: ring[PhaseEvent]{limit: phaseCap},
		links:  make(map[int]*linkSeries),
	}
}

// Enabled reports whether the tracer records anything (nil = disabled).
func (t *Tracer) Enabled() bool { return t != nil }

// BucketWidth returns the telemetry sampling resolution.
func (t *Tracer) BucketWidth() time.Duration {
	if t == nil {
		return 0
	}
	return t.width
}

// Horizon returns the latest virtual time any event was recorded at.
func (t *Tracer) Horizon() time.Duration {
	if t == nil {
		return 0
	}
	return t.horizon
}

// DroppedTxEvents reports lifecycle events lost to ring overflow.
func (t *Tracer) DroppedTxEvents() uint64 {
	if t == nil {
		return 0
	}
	return t.txs.dropped
}

// TxEvents returns the buffered lifecycle events in recording order.
func (t *Tracer) TxEvents() []TxEvent {
	if t == nil {
		return nil
	}
	return t.txs.items()
}

// PhaseEvents returns the buffered phase events in recording order.
func (t *Tracer) PhaseEvents() []PhaseEvent {
	if t == nil {
		return nil
	}
	return t.phases.items()
}

func (t *Tracer) observe(at time.Duration) {
	if at > t.horizon {
		t.horizon = at
	}
}

// node returns (creating if needed) node id's series.
func (t *Tracer) node(id int) *nodeSeries {
	if id < 0 {
		id = 0
	}
	for id >= len(t.nodes) {
		t.nodes = append(t.nodes, nil)
	}
	ns := t.nodes[id]
	if ns == nil {
		ns = &nodeSeries{name: fmt.Sprintf("node%d", id)}
		t.nodes[id] = ns
	}
	return ns
}

// bucket returns (growing if needed) the series bucket covering at.
func (ns *nodeSeries) bucket(width, at time.Duration) *NodeBucket {
	idx := int(at / width)
	if idx < 0 {
		idx = 0
	}
	for idx >= len(ns.buckets) {
		ns.buckets = append(ns.buckets, NodeBucket{})
	}
	return &ns.buckets[idx]
}

// RegisterNode names a node (simnet calls this for every endpoint).
func (t *Tracer) RegisterNode(id int, name string, dc int) {
	if t == nil {
		return
	}
	ns := t.node(id)
	ns.name = name
	ns.dc = dc
	ns.known = true
}

// TxStage records that tx reached stage on node at virtual time at.
func (t *Tracer) TxStage(tx TxID, stage Stage, node int, at time.Duration) {
	if t == nil {
		return
	}
	t.observe(at)
	t.txs.add(TxEvent{Tx: tx, Stage: stage, Node: int32(node), At: at})
}

// Phase records a consensus protocol phase mark.
func (t *Tracer) Phase(name string, node int, view, seq uint64, at time.Duration) {
	if t == nil {
		return
	}
	t.observe(at)
	t.phases.add(PhaseEvent{Name: name, Node: int32(node), View: view, Seq: seq, At: at})
}

// Busy charges d of CPU time starting at start to node's telemetry, split
// exactly across bucket boundaries so busy fractions never exceed 100%.
func (t *Tracer) Busy(node int, start, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.observe(start + d)
	ns := t.node(node)
	for d > 0 {
		idx := start / t.width
		end := (idx + 1) * t.width
		chunk := end - start
		if chunk > d {
			chunk = d
		}
		ns.bucket(t.width, start).Busy += chunk
		start += chunk
		d -= chunk
	}
}

// Queue records an inbox depth observation on node at time at.
func (t *Tracer) Queue(node int, at time.Duration, depth int) {
	if t == nil {
		return
	}
	t.observe(at)
	b := t.node(node).bucket(t.width, at)
	if depth > b.MaxQueue {
		b.MaxQueue = depth
	}
}

// Sent records bytes leaving node's NIC at time at.
func (t *Tracer) Sent(node int, at time.Duration, bytes int) {
	if t == nil {
		return
	}
	t.observe(at)
	t.node(node).bucket(t.width, at).BytesOut += uint64(bytes)
}

// Received records a message delivered to node at time at.
func (t *Tracer) Received(node int, at time.Duration, bytes int) {
	if t == nil {
		return
	}
	t.observe(at)
	b := t.node(node).bucket(t.width, at)
	b.BytesIn += uint64(bytes)
	b.Delivered++
}

// Dropped records a message lost on its way to node at time at.
func (t *Tracer) Dropped(node int, at time.Duration) {
	if t == nil {
		return
	}
	t.observe(at)
	t.node(node).bucket(t.width, at).Dropped++
}

// Wire records bytes crossing the directed fromDC→toDC link at time at
// (fromDC == toDC accounts intra-DC fabric traffic).
func (t *Tracer) Wire(fromDC, toDC int, at time.Duration, bytes int) {
	if t == nil {
		return
	}
	t.observe(at)
	key := fromDC*4096 + toDC
	ls := t.links[key]
	if ls == nil {
		ls = &linkSeries{fromDC: fromDC, toDC: toDC}
		t.links[key] = ls
	}
	idx := int(at / t.width)
	if idx < 0 {
		idx = 0
	}
	for idx >= len(ls.buckets) {
		ls.buckets = append(ls.buckets, LinkBucket{})
	}
	ls.buckets[idx].Bytes += uint64(bytes)
	ls.buckets[idx].Msgs++
}

// InterDCBytes returns the bytes that crossed between datacenters: the link
// buckets with fromDC != toDC, where a multicast crosses each pipe once.
func (t *Tracer) InterDCBytes() uint64 {
	if t == nil {
		return 0
	}
	var total uint64
	for _, ls := range t.links {
		if ls.fromDC != ls.toDC {
			for _, b := range ls.buckets {
				total += b.Bytes
			}
		}
	}
	return total
}

// NodeName returns the registered name of node id ("node<id>" if unknown).
func (t *Tracer) NodeName(id int) string {
	if t == nil || id < 0 || id >= len(t.nodes) || t.nodes[id] == nil {
		return fmt.Sprintf("node%d", id)
	}
	return t.nodes[id].name
}

// NodeBuckets returns a copy-free view of node id's telemetry buckets (nil
// if the node recorded nothing). Callers must not mutate it.
func (t *Tracer) NodeBuckets(id int) []NodeBucket {
	if t == nil || id < 0 || id >= len(t.nodes) || t.nodes[id] == nil {
		return nil
	}
	return t.nodes[id].buckets
}

// NumNodes returns the highest node id observed plus one.
func (t *Tracer) NumNodes() int {
	if t == nil {
		return 0
	}
	return len(t.nodes)
}
