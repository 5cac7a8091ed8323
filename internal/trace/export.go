package trace

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Pseudo-process IDs for tracks that do not belong to a single node. Real
// node IDs are small (hundreds), so these cannot collide.
const (
	txLanePID = 1_000_000 // transaction lifecycle swimlanes
	linkPID   = 1_000_001 // inter-DC link counters
)

// chromeEvent is one Chrome trace-event (the JSON array format understood by
// chrome://tracing and Perfetto). Field order is fixed by this struct and
// map args marshal with sorted keys, so exports are byte-deterministic.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat,omitempty"`
	Ph   string             `json:"ph"`
	TS   float64            `json:"ts"` // microseconds of virtual time
	Dur  float64            `json:"dur,omitempty"`
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// metaEvent is a metadata event (process naming / sorting).
type metaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// txSpan is one transaction's assembled lifecycle: its stage marks sorted by
// time.
type txSpan struct {
	tx     TxID
	events []TxEvent // sorted by (At, Stage)
}

func (s *txSpan) start() time.Duration { return s.events[0].At }
func (s *txSpan) end() time.Duration   { return s.events[len(s.events)-1].At }

// assembleSpans groups the lifecycle ring into per-transaction spans with at
// least two stage marks, ordered by (start time, TxID) for determinism.
func (t *Tracer) assembleSpans() []*txSpan {
	byTx := make(map[TxID]*txSpan)
	var order []*txSpan
	for _, e := range t.txs.items() {
		s := byTx[e.Tx]
		if s == nil {
			s = &txSpan{tx: e.Tx}
			byTx[e.Tx] = s
			order = append(order, s)
		}
		s.events = append(s.events, e)
	}
	var spans []*txSpan
	for _, s := range order {
		if len(s.events) < 2 {
			continue
		}
		sort.SliceStable(s.events, func(i, j int) bool {
			if s.events[i].At != s.events[j].At {
				return s.events[i].At < s.events[j].At
			}
			return s.events[i].Stage < s.events[j].Stage
		})
		spans = append(spans, s)
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start() != spans[j].start() {
			return spans[i].start() < spans[j].start()
		}
		return bytes.Compare(spans[i].tx[:], spans[j].tx[:]) < 0
	})
	return spans
}

// assignLanes packs overlapping spans into swimlanes (Chrome tids) greedily:
// each span takes the first lane free at its start time. Deterministic given
// the sorted span order.
func assignLanes(spans []*txSpan) []int {
	lanes := []time.Duration{}
	out := make([]int, len(spans))
	for i, s := range spans {
		placed := false
		for l := range lanes {
			if lanes[l] <= s.start() {
				lanes[l] = s.end()
				out[i] = l
				placed = true
				break
			}
		}
		if !placed {
			lanes = append(lanes, s.end())
			out[i] = len(lanes)
		}
	}
	return out
}

// sortedLinkKeys returns the link map keys ascending.
func (t *Tracer) sortedLinkKeys() []int {
	keys := make([]int, 0, len(t.links))
	for k := range t.links {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// WriteChromeTrace emits the trace in Chrome trace-event JSON format,
// loadable in chrome://tracing and ui.perfetto.dev. Tracks:
//
//   - one process per simulated node with "busy" (CPU %), "queue" (peak
//     inbox depth), "net" (KB in/out) and "drops" counter series;
//   - a "tx lifecycle" pseudo-process with one complete span per traced
//     transaction, tiled by per-stage sub-spans, packed into swimlanes;
//   - consensus phase spans on each replica's thread 1;
//   - a "links" pseudo-process with per-DC-pair bytes-on-wire counters.
//
// Output is byte-deterministic for a given tracer state.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	bw := &errWriter{w: w}
	bw.puts(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			bw.err = err
			return
		}
		if !first {
			bw.puts(",")
		}
		first = false
		bw.puts("\n")
		bw.put(b)
	}

	// Process metadata: nodes first (sorted by id), then pseudo-processes.
	for id, ns := range t.nodes {
		if ns == nil {
			continue
		}
		emit(metaEvent{Name: "process_name", Ph: "M", PID: id,
			Args: map[string]string{"name": fmt.Sprintf("%s (dc%d)", ns.name, ns.dc)}})
	}
	emit(metaEvent{Name: "process_name", Ph: "M", PID: txLanePID,
		Args: map[string]string{"name": "tx lifecycle"}})
	emit(metaEvent{Name: "process_name", Ph: "M", PID: linkPID,
		Args: map[string]string{"name": "links"}})

	// Transaction lifecycle spans.
	spans := t.assembleSpans()
	lanes := assignLanes(spans)
	for i, s := range spans {
		name := hex.EncodeToString(s.tx[:4])
		args := map[string]float64{}
		for j := 1; j < len(s.events); j++ {
			seg := s.events[j]
			args[seg.Stage.String()+"_us"] = us(seg.At - s.events[j-1].At)
		}
		emit(chromeEvent{Name: name, Cat: "tx", Ph: "X", TS: us(s.start()),
			Dur: us(s.end() - s.start()), PID: txLanePID, TID: lanes[i], Args: args})
		// Stage sub-spans tile the full span, named by the stage reached.
		for j := 1; j < len(s.events); j++ {
			seg := s.events[j]
			emit(chromeEvent{Name: seg.Stage.String(), Cat: "stage", Ph: "X",
				TS: us(s.events[j-1].At), Dur: us(seg.At - s.events[j-1].At),
				PID: txLanePID, TID: lanes[i],
				Args: map[string]float64{"node": float64(seg.Node)}})
		}
	}

	// Consensus phase spans: group by (node, view, seq), pair consecutive
	// marks into spans; the final mark becomes an instant event.
	type phaseKey struct {
		node int32
		view uint64
		seq  uint64
	}
	groups := make(map[phaseKey][]PhaseEvent)
	var keys []phaseKey
	for _, e := range t.phases.items() {
		k := phaseKey{e.Node, e.View, e.Seq}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		if keys[i].view != keys[j].view {
			return keys[i].view < keys[j].view
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		es := groups[k]
		sort.SliceStable(es, func(i, j int) bool { return es[i].At < es[j].At })
		for i, e := range es {
			args := map[string]float64{"view": float64(e.View), "seq": float64(e.Seq)}
			if i+1 < len(es) {
				emit(chromeEvent{Name: e.Name, Cat: "consensus", Ph: "X", TS: us(e.At),
					Dur: us(es[i+1].At - e.At), PID: int(e.Node), TID: 1, Args: args})
			} else {
				emit(chromeEvent{Name: e.Name, Cat: "consensus", Ph: "i", TS: us(e.At),
					PID: int(e.Node), TID: 1, Args: args})
			}
		}
	}

	// Per-node counter tracks.
	for id, ns := range t.nodes {
		if ns == nil {
			continue
		}
		for i, b := range ns.buckets {
			ts := us(time.Duration(i) * t.width)
			emit(chromeEvent{Name: "busy", Ph: "C", TS: ts, PID: id, TID: 0,
				Args: map[string]float64{"pct": 100 * float64(b.Busy) / float64(t.width)}})
			emit(chromeEvent{Name: "queue", Ph: "C", TS: ts, PID: id, TID: 0,
				Args: map[string]float64{"depth": float64(b.MaxQueue)}})
			emit(chromeEvent{Name: "net", Ph: "C", TS: ts, PID: id, TID: 0,
				Args: map[string]float64{"in_kb": float64(b.BytesIn) / 1024, "out_kb": float64(b.BytesOut) / 1024}})
			if b.Dropped > 0 {
				emit(chromeEvent{Name: "drops", Ph: "C", TS: ts, PID: id, TID: 0,
					Args: map[string]float64{"count": float64(b.Dropped)}})
			}
		}
	}

	// Link counters.
	for _, key := range t.sortedLinkKeys() {
		ls := t.links[key]
		name := fmt.Sprintf("dc%d-dc%d KB", ls.fromDC, ls.toDC)
		for i, b := range ls.buckets {
			emit(chromeEvent{Name: name, Ph: "C", TS: us(time.Duration(i) * t.width),
				PID: linkPID, TID: 0, Args: map[string]float64{"kb": float64(b.Bytes) / 1024}})
		}
	}

	bw.puts("\n]}\n")
	return bw.err
}

// jsonlEvent is one line of the structured event log.
type jsonlEvent struct {
	Type   string  `json:"type"`
	Tx     string  `json:"tx,omitempty"`
	Stage  string  `json:"stage,omitempty"`
	Phase  string  `json:"phase,omitempty"`
	Node   int32   `json:"node,omitempty"`
	View   uint64  `json:"view,omitempty"`
	Seq    uint64  `json:"seq,omitempty"`
	FromDC int     `json:"from_dc,omitempty"`
	ToDC   int     `json:"to_dc,omitempty"`
	Bucket int     `json:"bucket,omitempty"`
	TsUs   float64 `json:"ts_us"`
	BusyUs float64 `json:"busy_us,omitempty"`
	Queue  int     `json:"queue,omitempty"`
	In     uint64  `json:"bytes_in,omitempty"`
	Out    uint64  `json:"bytes_out,omitempty"`
	Drops  uint64  `json:"drops,omitempty"`
	Bytes  uint64  `json:"bytes,omitempty"`
	Msgs   uint64  `json:"msgs,omitempty"`
}

// WriteJSONL emits the raw event streams as one JSON object per line:
// lifecycle events and phase marks in recording order, then node telemetry
// buckets (node-major), then link buckets (key-major). Byte-deterministic.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range t.txs.items() {
		if err := enc.Encode(jsonlEvent{Type: "tx", Tx: hex.EncodeToString(e.Tx[:]),
			Stage: e.Stage.String(), Node: e.Node, TsUs: us(e.At)}); err != nil {
			return err
		}
	}
	for _, e := range t.phases.items() {
		if err := enc.Encode(jsonlEvent{Type: "phase", Phase: e.Name, Node: e.Node,
			View: e.View, Seq: e.Seq, TsUs: us(e.At)}); err != nil {
			return err
		}
	}
	for id, ns := range t.nodes {
		if ns == nil {
			continue
		}
		for i, b := range ns.buckets {
			if b == (NodeBucket{}) {
				continue
			}
			if err := enc.Encode(jsonlEvent{Type: "node", Node: int32(id), Bucket: i,
				TsUs: us(time.Duration(i) * t.width), BusyUs: us(b.Busy),
				Queue: b.MaxQueue, In: b.BytesIn, Out: b.BytesOut, Drops: b.Dropped,
				Msgs: b.Delivered}); err != nil {
				return err
			}
		}
	}
	for _, key := range t.sortedLinkKeys() {
		ls := t.links[key]
		for i, b := range ls.buckets {
			if b == (LinkBucket{}) {
				continue
			}
			if err := enc.Encode(jsonlEvent{Type: "link", FromDC: ls.fromDC, ToDC: ls.toDC,
				Bucket: i, TsUs: us(time.Duration(i) * t.width), Bytes: b.Bytes,
				Msgs: b.Msgs}); err != nil {
				return err
			}
		}
	}
	return nil
}

// errWriter folds write errors into one sticky error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) put(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *errWriter) puts(s string) { e.put([]byte(s)) }
