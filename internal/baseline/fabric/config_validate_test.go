package fabric

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidate covers every rejection class of Config.Validate,
// including the per-protocol quorum feasibility rule (raft is CFT and only
// needs 2F+1 orderers; the BFT ordering service needs 3F+1).
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the expected error; "" = valid
	}{
		{"default-hlf", func(c *Config) {}, ""},
		{"derive-orderers-from-f", func(c *Config) { c.NumConsensus = 0; c.F = 2 }, ""},
		{"unknown-variant", func(c *Config) { c.Variant = Variant(99) }, "unknown variant"},
		{"zero-orgs", func(c *Config) { c.NumOrgs = 0 }, "NumOrgs"},
		{"zero-peers", func(c *Config) { c.PerOrg = 0 }, "PerOrg"},
		{"negative-f", func(c *Config) { c.F = -1 }, "F must be >= 0"},
		{"zero-block-size", func(c *Config) { c.BlockSize = 0 }, "BlockSize"},
		{"negative-block-timeout", func(c *Config) { c.BlockTimeout = -time.Millisecond }, "BlockTimeout"},
		{"zero-block-timeout", func(c *Config) { c.BlockTimeout = 0 }, "BlockTimeout must be > 0"},
		{"negative-view-timeout", func(c *Config) { c.ViewTimeout = -1 }, "ViewTimeout"},
		{"negative-dcs", func(c *Config) { c.NumDCs = -1 }, "NumDCs"},
		{"unknown-protocol", func(c *Config) { c.Protocol = "pbft" }, "unknown protocol"},
		{"bft-quorum-infeasible", func(c *Config) { c.NumConsensus = 5; c.F = 2 }, "cannot tolerate"},
		{"raft-quorum-feasible", func(c *Config) { c.Protocol = "raft"; c.NumConsensus = 5; c.F = 2 }, ""},
		{"raft-quorum-infeasible", func(c *Config) { c.Protocol = "raft"; c.NumConsensus = 4; c.F = 2 }, "cannot tolerate"},
		{"loss-rate-range", func(c *Config) { c.Topology.LossRate = 1 }, "LossRate"},
		{"negative-jitter", func(c *Config) { c.Topology.Jitter = -1 }, "Jitter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(HLF)
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}
