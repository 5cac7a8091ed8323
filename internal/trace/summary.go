package trace

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// The summary's table sizes: the busiest nodes and the slowest transactions.
const (
	summaryTopNodes = 10
	summaryTopTxs   = 5
)

// WriteSummary renders the telemetry as a human-readable report: per-node
// busy%/queue/traffic for the busiest nodes, per-link utilization, and the
// slowest traced transactions with their stage breakdown.
func (t *Tracer) WriteSummary(w io.Writer) {
	if t == nil {
		fmt.Fprintln(w, "telemetry: tracing disabled")
		return
	}
	horizon := t.horizon
	if horizon <= 0 {
		fmt.Fprintln(w, "telemetry: no events recorded")
		return
	}

	type nodeRow struct {
		id                 int
		name               string
		busy               time.Duration
		maxQueue           int
		in, out            uint64
		delivered, dropped uint64
	}
	var rows []nodeRow
	for id, ns := range t.nodes {
		if ns == nil || len(ns.buckets) == 0 {
			continue
		}
		r := nodeRow{id: id, name: ns.name}
		for _, b := range ns.buckets {
			r.busy += b.Busy
			if b.MaxQueue > r.maxQueue {
				r.maxQueue = b.MaxQueue
			}
			r.in += b.BytesIn
			r.out += b.BytesOut
			r.delivered += b.Delivered
			r.dropped += b.Dropped
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].busy != rows[j].busy {
			return rows[i].busy > rows[j].busy
		}
		return rows[i].id < rows[j].id
	})
	fmt.Fprintf(w, "telemetry over %v (%d nodes, bucket %v):\n",
		horizon.Round(time.Millisecond), len(rows), t.width)
	fmt.Fprintf(w, "  %-18s %7s %7s %10s %10s %8s %7s\n",
		"node", "busy%", "maxQ", "in", "out", "msgs", "drops")
	shown := rows[:min(summaryTopNodes, len(rows))]
	for _, r := range shown {
		fmt.Fprintf(w, "  %-18s %6.1f%% %7d %10s %10s %8d %7d\n",
			r.name, 100*float64(r.busy)/float64(horizon), r.maxQueue,
			kb(r.in), kb(r.out), r.delivered, r.dropped)
	}
	if len(rows) > len(shown) {
		fmt.Fprintf(w, "  ... %d more nodes\n", len(rows)-len(shown))
	}

	if len(t.links) > 0 {
		fmt.Fprintln(w, "links (bytes on wire):")
		for _, key := range t.sortedLinkKeys() {
			ls := t.links[key]
			var total uint64
			var peak uint64
			for _, b := range ls.buckets {
				total += b.Bytes
				if b.Bytes > peak {
					peak = b.Bytes
				}
			}
			avgMBps := float64(total) / horizon.Seconds() / (1 << 20)
			peakMBps := float64(peak) / t.width.Seconds() / (1 << 20)
			fmt.Fprintf(w, "  dc%d->dc%d  total %s  avg %.1f MB/s  peak %.1f MB/s\n",
				ls.fromDC, ls.toDC, kb(total), avgMBps, peakMBps)
		}
	}

	spans := t.assembleSpans()
	sort.SliceStable(spans, func(i, j int) bool {
		di, dj := spans[i].end()-spans[i].start(), spans[j].end()-spans[j].start()
		if di != dj {
			return di > dj
		}
		return bytes.Compare(spans[i].tx[:], spans[j].tx[:]) < 0
	})
	if len(spans) > 0 {
		fmt.Fprintf(w, "slowest traced transactions (of %d):\n", len(spans))
		for _, s := range spans[:min(summaryTopTxs, len(spans))] {
			var parts []string
			for i := 1; i < len(s.events); i++ {
				parts = append(parts, fmt.Sprintf("%s %v", s.events[i].Stage,
					(s.events[i].At-s.events[i-1].At).Round(10*time.Microsecond)))
			}
			fmt.Fprintf(w, "  %s  total %v  [%s]\n", hex.EncodeToString(s.tx[:4]),
				(s.end() - s.start()).Round(10*time.Microsecond), strings.Join(parts, ", "))
		}
	}
	if d := t.txs.dropped + t.phases.dropped; d > 0 {
		fmt.Fprintf(w, "  warning: %d events dropped by ring overflow\n", d)
	}
}

func kb(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
