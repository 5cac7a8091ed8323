package trace

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// This file is the read side of the JSONL export and, together with
// WriteJSONL, freezes the schema: every field jsonlEvent emits is parsed
// back here, and the offline anatomy path (`bidl report`) is pinned
// byte-identical to the in-process path over this round trip.

// JSONLData is the event content recovered from a -trace-jsonl file: the two
// streams the anatomy layer consumes, in recording order.
type JSONLData struct {
	TxEvents    []TxEvent
	PhaseEvents []PhaseEvent
	// NodeLines and LinkLines count telemetry lines seen (parsed for
	// validation, not retained).
	NodeLines, LinkLines int
}

// durFromUs recovers the exact virtual-time duration from an exported ts_us
// value. WriteJSONL emits float64(ns)/1000; for ns < 2^52 the division is
// exact in float64, so rounding the product back is lossless.
func durFromUs(tsUs float64) time.Duration {
	return time.Duration(math.Round(tsUs * float64(time.Microsecond)))
}

// ReadJSONL parses a JSONL trace export back into its event streams,
// validating the frozen schema as it goes: every line must be a known type
// ("tx", "phase", "node", "link"), tx lines must carry a 64-hex-digit id and
// a known stage label, and phase lines a non-empty phase name. Returns an
// error naming the offending line number on any violation.
func ReadJSONL(r io.Reader) (*JSONLData, error) {
	out := &JSONLData{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e jsonlEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %v", line, err)
		}
		switch e.Type {
		case "tx":
			id, err := hex.DecodeString(e.Tx)
			if err != nil || len(id) != 32 {
				return nil, fmt.Errorf("jsonl line %d: bad tx id %q", line, e.Tx)
			}
			stage, ok := StageFromName(e.Stage)
			if !ok {
				return nil, fmt.Errorf("jsonl line %d: unknown stage %q", line, e.Stage)
			}
			var tx TxID
			copy(tx[:], id)
			out.TxEvents = append(out.TxEvents, TxEvent{
				Tx: tx, Stage: stage, Node: e.Node, At: durFromUs(e.TsUs)})
		case "phase":
			if e.Phase == "" {
				return nil, fmt.Errorf("jsonl line %d: phase event without name", line)
			}
			out.PhaseEvents = append(out.PhaseEvents, PhaseEvent{
				Name: e.Phase, Node: e.Node, View: e.View, Seq: e.Seq, At: durFromUs(e.TsUs)})
		case "node":
			out.NodeLines++
		case "link":
			out.LinkLines++
		default:
			return nil, fmt.Errorf("jsonl line %d: unknown event type %q", line, e.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jsonl line %d: %v", line, err)
	}
	return out, nil
}

// ValidateJSONL checks a JSONL export beyond schema well-formedness: per
// transaction, stage timestamps must be monotonically non-decreasing in
// recording order, and no timestamp may be negative. Returns counts for
// reporting.
func ValidateJSONL(r io.Reader) (*JSONLData, error) {
	data, err := ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	last := make(map[TxID]time.Duration)
	for i, e := range data.TxEvents {
		if e.At < 0 {
			return nil, fmt.Errorf("tx event %d: negative timestamp %v", i, e.At)
		}
		if prev, ok := last[e.Tx]; ok && e.At < prev {
			return nil, fmt.Errorf("tx %s: stage %q at %v precedes earlier mark at %v",
				hex.EncodeToString(e.Tx[:4]), e.Stage, e.At, prev)
		}
		last[e.Tx] = e.At
	}
	for i, e := range data.PhaseEvents {
		if e.At < 0 {
			return nil, fmt.Errorf("phase event %d: negative timestamp %v", i, e.At)
		}
	}
	return data, nil
}
