package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// streamFollowers counts c's normal nodes still on the PERSIST stream.
func streamFollowers(c *Cluster) (n int) {
	for _, org := range c.Orgs {
		for _, nn := range org {
			if nn.onStream {
				n++
			}
		}
	}
	return n
}

// clusterFingerprint is every normal node's commit height and state digest
// and the cluster's ledger digest.
func clusterFingerprint(c *Cluster) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ledger %x\n", c.LedgerDigest())
	for _, org := range c.Orgs {
		for _, nn := range org {
			fmt.Fprintf(&sb, "n%d height=%d state=%x\n", nn.ep.ID(), nn.CommitHeight(), nn.State().Digest())
		}
	}
	return sb.String()
}

// foreignEchoes makes the consensus nodes at cns multicast, at each of times,
// a signed PERSIST batch that echoes, for every sequence number in [lo, hi],
// a content of a transaction the sequencer never ordered there.
func foreignEchoes(c *Cluster, cns []int, lo, hi uint64, times ...time.Duration) {
	for _, at := range times {
		c.Sim.At(at, func() {
			for _, i := range cns {
				cn := c.ConsNodes[i]
				msg := &PersistMsg{Node: i, stream: true}
				for seq := lo; seq <= hi; seq++ {
					e := &PersistEntry{Seq: seq, TxID: types.TxID{0xEE, byte(seq), byte(seq >> 8)}, Consistent: true,
						Writes: []ledger.Write{{Key: "foreign", Val: []byte{byte(seq)}}}}
					e.warmContentKey()
					msg.Entries = append(msg.Entries, e)
				}
				msg.sign(cn.Sign)
				c.multicast(simnet.NewInjectedContext(c.Net, cn.Ep), c.groupPersist, msg)
			}
		})
	}
}

// TestPersistStreamMatchesPrivateTallies is the differential oracle of the
// shared PERSIST stream: on every run of adoptionRuns and two byzantine ones,
// normal nodes following the stream adopt the same results at the same
// times, commit the same blocks and reach the same states as nodes that each
// count every echo themselves. In "foreign" one consensus node echoes another
// content for every sequence number before and after it commits; in
// "collusion" three of four do, so that content reaches 2f+1 in a node's
// own tally restarted at commit.
func TestPersistStreamMatchesPrivateTallies(t *testing.T) {
	none := func(*Cluster) func() error { return nil }
	byzantine := func(name string, cns ...int) adoptionRun {
		return adoptionRun{name: name, cfg: func(*Config) {}, arm: func(c *Cluster) func() error {
			foreignEchoes(c, cns, 201, 280, 2*time.Millisecond, 12*time.Millisecond, 400*time.Millisecond, 600*time.Millisecond)
			return nil
		}}
	}
	runs := append(adoptionRuns(), byzantine("foreign", 3), byzantine("collusion", 1, 2, 3),
		adoptionRun{name: "no-multicast", cfg: func(c *Config) { c.DisableMulticast = true }, arm: none})
	// With adoptionRuns' 5 ms block timeout the persist watchdog refetches
	// rounds that are merely slow, and every reply takes its node off the
	// stream; the default timeout keeps fault-free nodes on it.
	for _, r := range runs[:len(runs):len(runs)] {
		cfg := r.cfg
		r.name += "/10ms"
		r.cfg = func(c *Config) { cfg(c); c.BlockTimeout = DefaultConfig().BlockTimeout }
		runs = append(runs, r)
	}
	// A lag bound this small makes the stream evict the slowest followers: the
	// crash's victim, and any node that falls behind.
	evict := adoptionRuns()[2]
	evict.name = "crash/evict"
	evict.cfg = func(c *Config) { c.BlockTimeout = DefaultConfig().BlockTimeout }
	crash := evict.arm
	evict.arm = func(c *Cluster) func() error {
		c.stream.steps.MaxLag = 4
		return crash(c)
	}
	runs = append(runs, evict)
	for _, r := range runs {
		shared, sharedOut := runAdoptions(t, r)
		followers := streamFollowers(shared)
		restore := dense.SetPrivate(true)
		private, privateOut := runAdoptions(t, r)
		restore()
		if !bytes.Equal(sharedOut, privateOut) {
			got, want := strings.Split(string(sharedOut), "\n"), strings.Split(string(privateOut), "\n")
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("%s: adoption %d on the stream: %q, on private tallies: %q", r.name, i+1, got[i], strings.Join(want[min(i, len(want)):min(i+1, len(want))], ""))
				}
			}
			t.Fatalf("%s: %d adoptions on the stream, %d on private tallies", r.name, len(got), len(want))
		}
		if a, b := clusterFingerprint(shared), clusterFingerprint(private); a != b {
			t.Fatalf("%s: on the stream\n%s\non private tallies\n%s", r.name, a, b)
		}
		t.Logf("%s: %d adoptions, %d of %d nodes still on the stream", r.name, bytes.Count(sharedOut, []byte("\n")), followers, len(shared.Orgs)*len(shared.Orgs[0]))
		if r.name == "fault-free/10ms" && followers != len(shared.Orgs)*len(shared.Orgs[0]) {
			t.Fatalf("%s: only %d normal nodes still follow the stream", r.name, followers)
		}
		if r.name == "crash/evict" && !shared.Orgs[1][1].cur.evicted {
			t.Fatalf("%s: the crash's victim was never evicted", r.name)
		}
		if st := shared.stream; followers == 0 && (st.tallies != nil || st.spare != nil || st.steps.Head() != st.steps.Low() || st.done.Head() != st.done.Low()) {
			t.Fatalf("%s: the stream keeps its tallies or buffers with no follower left", r.name)
		}
		for _, org := range shared.Orgs {
			for _, nn := range org {
				if nn.cur.state != nil {
					t.Fatalf("%s: n%d still holds the tallies it was evicted with", r.name, nn.ep.ID())
				}
			}
		}
	}
}

// TestPersistTallyWorkPerTxn counts PERSIST entry visits per committed
// transaction on a fault-free 13-org, 13-consensus-node cluster: vote-loop
// iterations, the stream's or a node's own, plus echoes a following node
// adopted. Every node counting every echo itself costs 13 × 13; the stream
// tallies each echo once and each node adopts each result once. The load,
// 2 500 transactions a second, is light enough that no persist round waits for
// the watchdog, whose PersistFetchReq replies both ways would visit too.
func TestPersistTallyWorkPerTxn(t *testing.T) {
	perTxn := func(private bool) float64 {
		cfg := DefaultConfig()
		cfg.NumOrgs, cfg.NumConsensus, cfg.F = 13, 13, 4
		cfg.BlockSize = 50
		p := &PersistProbe{}
		defer SetPersistProbe(p)()
		defer dense.SetPrivate(private)()
		w := workload.DefaultConfig(cfg.NumOrgs)
		w.NumClients, w.Accounts = 26, 1300
		c, gen := buildCluster(t, cfg, w)
		const n = 300
		for i, tx := range gen.Batch(n) {
			c.SubmitAt(time.Duration(i)*400*time.Microsecond, tx)
		}
		c.Run(2 * time.Second)
		if got := c.Collector.NumCommitted(); got != n {
			t.Fatalf("committed %d of %d", got, n)
		}
		return float64(p.Visits()) / float64(c.Collector.NumCommitted())
	}
	shared, private := perTxn(false), perTxn(true)
	t.Logf("PERSIST entry visits per committed transaction: %.1f on the stream, %.1f on private tallies", shared, private)
	if private != 13*13 {
		t.Fatalf("private tallies visit %.1f entries per transaction, want 13 × 13", private)
	}
	if shared > 2*13 {
		t.Fatalf("the stream visits %.1f entries per transaction, want at most 2 × 13", shared)
	}
}
