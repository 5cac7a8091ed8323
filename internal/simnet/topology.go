package simnet

import (
	"fmt"
	"time"
)

// Bandwidth values are in bytes per second. The paper's 40 Gbps NICs are
// 5e9 B/s.
const Gbps = int64(1e9 / 8)

// Topology describes the datacenter layout and link characteristics.
// Endpoints are assigned to datacenters at registration time; latency and
// bandwidth between two endpoints are derived from their datacenter pair.
type Topology struct {
	// IntraLatency is the one-way propagation delay between two endpoints
	// in the same datacenter. The paper's cluster has 0.2 ms RTT.
	IntraLatency time.Duration
	// InterLatency is the one-way propagation delay between endpoints in
	// different datacenters (paper §6.4 uses 20 ms RTT).
	InterLatency time.Duration
	// NICBandwidth is each endpoint's egress capacity (bytes/s).
	// Zero means unlimited.
	NICBandwidth int64
	// InterDCBandwidth, when non-zero, models a shared dedicated pipe per
	// ordered datacenter pair: all traffic from DC a to DC b serializes on
	// one link of this capacity (bytes/s). This is the knob behind Fig 9.
	InterDCBandwidth int64
	// Jitter adds a uniform random [0, Jitter) delay to every message's
	// propagation. Large jitter can violate the triangle inequality, which
	// is what the denylist false-positive analysis (§5.2) depends on.
	Jitter time.Duration
	// LossRate is the independent per-message per-receiver drop
	// probability in [0, 1).
	LossRate float64
}

// DefaultTopology mirrors the paper's evaluation cluster: one datacenter,
// 0.2 ms RTT, 40 Gbps NICs, no loss.
func DefaultTopology() Topology {
	return Topology{
		IntraLatency: 100 * time.Microsecond,
		InterLatency: 10 * time.Millisecond,
		NICBandwidth: 40 * Gbps,
	}
}

// Validate reports the first out-of-range topology parameter.
func (t Topology) Validate() error {
	switch {
	case t.IntraLatency < 0:
		return fmt.Errorf("simnet: IntraLatency must be >= 0 (got %s)", t.IntraLatency)
	case t.InterLatency < 0:
		return fmt.Errorf("simnet: InterLatency must be >= 0 (got %s)", t.InterLatency)
	case t.NICBandwidth < 0:
		return fmt.Errorf("simnet: NICBandwidth must be >= 0 (got %d)", t.NICBandwidth)
	case t.InterDCBandwidth < 0:
		return fmt.Errorf("simnet: InterDCBandwidth must be >= 0 (got %d)", t.InterDCBandwidth)
	case t.Jitter < 0:
		return fmt.Errorf("simnet: Jitter must be >= 0 (got %s)", t.Jitter)
	case t.LossRate < 0 || t.LossRate >= 1:
		return fmt.Errorf("simnet: LossRate must be in [0,1) (got %g)", t.LossRate)
	}
	return nil
}

// MinLatency returns the smallest one-way propagation delay across any
// endpoint pair — the conservative-PDES lookahead bound when no feature
// bypasses the propagation floor.
func (t Topology) MinLatency() time.Duration {
	if t.InterLatency < t.IntraLatency {
		return t.InterLatency
	}
	return t.IntraLatency
}

// latency returns the one-way propagation delay between two datacenters.
func (t Topology) latency(fromDC, toDC int) time.Duration {
	if fromDC == toDC {
		return t.IntraLatency
	}
	return t.InterLatency
}
