package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// cpuShares attributes the samples of a CPU profile to layers and returns
// each layer's share of the total, in percent.
func cpuShares(profile string) (map[string]float64, error) {
	text, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	samples, err := parseTraces(text)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("profile %s holds no samples", profile)
	}
	return attribute(samples), nil
}

// traceSample is one stack of `go tool pprof -traces` output with the CPU
// time it stands for. Frames run from the leaf outwards.
type traceSample struct {
	weight time.Duration
	frames []string
}

// parseTraces reads the text form of `pprof -traces`: a header, then one
// block per distinct stack, blocks separated by lines of dashes. A block's
// first line is "<duration>   <leaf function>", the following lines are its
// callers. Inlined calls appear as frames of their own.
func parseTraces(text []byte) ([]traceSample, error) {
	var samples []traceSample
	var cur *traceSample
	inHeader := true
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----") {
			inHeader = false
			cur = nil
			continue
		}
		if inHeader || line == "" {
			continue
		}
		if cur != nil {
			cur.frames = append(cur.frames, line)
			continue
		}
		dur, frame, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("pprof traces: sample line %q has no frame", line)
		}
		w, err := parseWeight(dur)
		if err != nil {
			return nil, fmt.Errorf("pprof traces: sample line %q: %w", line, err)
		}
		samples = append(samples, traceSample{weight: w, frames: []string{strings.TrimSpace(frame)}})
		cur = &samples[len(samples)-1]
	}
	return samples, sc.Err()
}

// parseWeight reads pprof's duration column ("10ms", "1.20s", "250us").
func parseWeight(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	// pprof prints minutes and hours as "1.5mins"/"2hrs".
	for suffix, unit := range map[string]time.Duration{"mins": time.Minute, "hrs": time.Hour} {
		if num, ok := strings.CutSuffix(s, suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(f * float64(unit)), nil
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// internalPrefix marks a frame of this repository's internal packages.
const internalPrefix = "github.com/bidl-framework/bidl/internal/"

// frameLayer maps a function name to its layer, or "" when the frame is not
// in a layer package (Go runtime, standard library, the benchmark itself, or
// an internal helper package such as cost that no layer owns).
func frameLayer(frame string) string {
	rest, ok := strings.CutPrefix(frame, internalPrefix)
	if !ok {
		return ""
	}
	// rest is "<pkg path>.<symbol>"; the package path ends at the first dot
	// after its last slash.
	pkg := rest
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		if j := strings.Index(rest[i:], "."); j >= 0 {
			pkg = rest[:i+j]
		}
	} else if j := strings.Index(rest, "."); j >= 0 {
		pkg = rest[:j]
	}
	top, _, _ := strings.Cut(pkg, "/")
	switch {
	case pkg == "baseline/fabric":
		return "fabric"
	case top == "attack":
		return "chaos"
	}
	for _, layer := range cpuLayers {
		if top == layer {
			return layer
		}
	}
	return ""
}

// attribute credits each sample to the innermost frame that lies in a layer
// package, so time a layer spends inside the standard library (SHA-256 under
// crypto.Sign, map probes under a core method) is that layer's self time.
// Samples with no such frame — background GC, the runtime's scheduler — are
// go_runtime's. The shares sum to 100.
func attribute(samples []traceSample) map[string]float64 {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		layer := "go_runtime"
		for _, f := range s.frames {
			if l := frameLayer(f); l != "" {
				layer = l
				break
			}
		}
		byLayer[layer] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for layer, d := range byLayer {
		shares[layer] = 100 * float64(d) / float64(total)
	}
	return shares
}
