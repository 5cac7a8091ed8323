package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/workload"
)

// Rewrite testdata/persist-adoptions.golden with
//
//	go test ./internal/core -run TestPersistAdoptionsPinned -adoptions-update
//
// only for a deliberate change to when normal nodes adopt PERSIST results.
var adoptionsUpdate = flag.Bool("adoptions-update", false, "rewrite testdata/persist-adoptions.golden")

// adoptionRun is one small BIDL deployment whose PERSIST adoptions are
// recorded: cfg adjusts the cluster's configuration, arm installs faults on
// the built cluster and returns a check that the fault took effect.
type adoptionRun struct {
	name string
	cfg  func(*Config)
	arm  func(*Cluster) (check func() error)
}

// adoptionRuns are a fault-free run, loss, a normal node's crash, two
// datacenters, and a normal node whose PERSIST round only completes through
// PersistFetchReq replies.
func adoptionRuns() []adoptionRun {
	none := func(*Cluster) func() error { return nil }
	return []adoptionRun{
		{name: "fault-free", cfg: func(*Config) {}, arm: none},
		{name: "loss", cfg: func(c *Config) { c.Topology.LossRate = 0.03 }, arm: none},
		{name: "crash", cfg: func(*Config) {}, arm: func(c *Cluster) func() error {
			victim := c.Orgs[1][1].ep
			c.Sim.At(8*time.Millisecond, func() { victim.SetDown(true) })
			c.Sim.At(30*time.Millisecond, victim.Restart)
			return nil
		}},
		{name: "dcs2", cfg: func(c *Config) { c.NumDCs = 2 }, arm: none},
		{name: "persist-fetch", cfg: func(*Config) {}, arm: func(c *Cluster) func() error {
			// Two of four consensus nodes' PERSIST multicasts never reach the
			// victim between 5 and 40 ms, so its rounds stall below 2f+1 until
			// it asks for the entries again.
			victim := c.Orgs[2][0].ep.ID()
			cn0, cn1 := c.ConsNodes[0].Ep.ID(), c.ConsNodes[1].Ep.ID()
			fetched := 0
			c.Net.DropFilter = func(from, to simnet.NodeID, msg simnet.Message) bool {
				switch msg.(type) {
				case *PersistFetchReq:
					if from == victim {
						fetched++
					}
				case *PersistMsg:
					now := c.Sim.Now()
					return to == victim && (from == cn0 || from == cn1) &&
						now >= 5*time.Millisecond && now < 40*time.Millisecond
				}
				return false
			}
			return func() error {
				if fetched == 0 {
					return fmt.Errorf("the victim never sent a PersistFetchReq")
				}
				return nil
			}
		}},
	}
}

// runAdoptions runs r on a 4-consensus-node, 4-org cluster with two normal
// nodes per organization and returns the cluster and its transcript: one
// line per adoption, in simulation order.
func runAdoptions(t *testing.T, r adoptionRun) (*Cluster, []byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumOrgs, cfg.PerOrg = 4, 2
	cfg.BlockSize = 20
	cfg.BlockTimeout = 5 * time.Millisecond
	r.cfg(&cfg)
	var out bytes.Buffer
	defer SetPersistProbe(&PersistProbe{Adopted: func(node simnet.NodeID, seq uint64, at time.Duration, from int) {
		fmt.Fprintf(&out, "n%d seq=%d t=%d cn%d\n", node, seq, at, from)
	}})()
	w := workload.DefaultConfig(cfg.NumOrgs)
	w.NumClients, w.Accounts = 16, 400
	c, gen := buildCluster(t, cfg, w)
	check := r.arm(c)
	const n = 80
	for i, tx := range gen.Batch(n) {
		c.SubmitAt(time.Duration(i)*250*time.Microsecond, tx)
	}
	c.Run(2 * time.Second)
	if check != nil {
		if err := check(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	if got := c.Collector.NumCommitted(); got < n*9/10 {
		t.Fatalf("%s: committed %d of %d", r.name, got, n)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return c, out.Bytes()
}

// TestPersistAdoptionsPinned pins, for every run of adoptionRuns, which
// normal node adopts which sequence number's PERSIST result, at what virtual
// time, on whose message.
func TestPersistAdoptionsPinned(t *testing.T) {
	var out bytes.Buffer
	for _, r := range adoptionRuns() {
		_, transcript := runAdoptions(t, r)
		fmt.Fprintf(&out, "== %s\n%s", r.name, transcript)
	}
	path := filepath.Join("testdata", "persist-adoptions.golden")
	if *adoptionsUpdate {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -adoptions-update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range got {
			if i >= len(exp) || got[i] != exp[i] {
				t.Fatalf("adoptions differ from %s at line %d:\n got %s\nwant %s", path, i+1, got[i], strings.Join(exp[min(i, len(exp)):min(i+1, len(exp))], ""))
			}
		}
		t.Fatalf("adoptions stop at line %d of %s", len(got), path)
	}
}
