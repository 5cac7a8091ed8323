package core

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidate covers every rejection class of Config.Validate, plus
// the derivation rules it must apply before judging (NumConsensus from F and
// vice versa) so that configs NewCluster would accept are not rejected.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the expected error; "" = valid
	}{
		{"default", func(c *Config) {}, ""},
		{"derive-consensus-from-f", func(c *Config) { c.NumConsensus = 0; c.F = 2 }, ""},
		{"derive-f-from-consensus", func(c *Config) { c.NumConsensus = 7; c.F = 0 }, ""},
		{"zero-orgs", func(c *Config) { c.NumOrgs = 0 }, "NumOrgs"},
		{"zero-normal-per-org", func(c *Config) { c.PerOrg = 0 }, "PerOrg"},
		{"zero-consensus-zero-f", func(c *Config) { c.NumConsensus = 0; c.F = 0 }, ""},
		{"negative-f", func(c *Config) { c.NumConsensus = 4; c.F = -1 }, "F must be >= 0"},
		{"quorum-infeasible", func(c *Config) { c.NumConsensus = 5; c.F = 2 }, "cannot tolerate"},
		{"zero-block-size", func(c *Config) { c.BlockSize = 0 }, "BlockSize"},
		{"negative-dcs", func(c *Config) { c.NumDCs = -1 }, "NumDCs"},
		{"unknown-protocol", func(c *Config) { c.Protocol = "paxos" }, "unknown protocol"},
		{"negative-block-timeout", func(c *Config) { c.BlockTimeout = -time.Millisecond }, "BlockTimeout"},
		// Zero would hang Run: armPersistRetry re-arms itself with After(0)
		// while the head block waits for persist votes.
		{"zero-block-timeout", func(c *Config) { c.BlockTimeout = 0 }, "BlockTimeout must be > 0"},
		{"negative-view-timeout", func(c *Config) { c.ViewTimeout = -1 }, "ViewTimeout"},
		{"negative-intra-latency", func(c *Config) { c.Topology.IntraLatency = -1 }, "IntraLatency"},
		{"loss-rate-range", func(c *Config) { c.Topology.LossRate = 1 }, "LossRate"},
		// The shared half (substrate.Config.Validate) reports under this
		// package's prefix; these two of its checks had no row in either
		// framework's table.
		{"negative-consensus", func(c *Config) { c.NumConsensus = -1 }, "core: NumConsensus must be >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
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
