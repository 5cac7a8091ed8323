package chaos

import (
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// TestBroadcasterAtViewChangeBoundary arms the broadcaster at exactly the
// view timeout of a run whose initial leader is malicious, so the attack's
// first bursts straddle the leader replacement. The denylist edge case:
// conflict evidence gathered under the dying view must still converge on
// the colluding client — and only on it — once the new leader installs.
func TestBroadcasterAtViewChangeBoundary(t *testing.T) {
	cfg := testConfig()
	c, gen := build(t, cfg)
	evil := c.LeaderIndex()
	c.SetLeaderEvil(true)
	b := NewBroadcaster(c, gen, broadcasterAt(cfg.ViewTimeout)) // first burst lands as the view change does
	load(c, gen, 0, 2000, time.Millisecond)
	c.Run(5 * time.Second)

	if c.Collector.ViewChanges == 0 {
		t.Fatal("malicious leader never triggered a view change")
	}
	if c.LeaderIndex() == evil {
		t.Fatal("malicious leader still leading")
	}
	if b.Bursts == 0 {
		t.Fatal("broadcaster never fired")
	}
	malicious := make(map[crypto.Identity]bool)
	for _, id := range b.MaliciousIdentities() {
		malicious[id] = true
	}
	denied := 0
	for _, cn := range c.ConsNodes {
		for cl := range cn.Denylist() {
			if !malicious[cl] {
				t.Fatalf("correct client %s denylisted across the view-change boundary", cl)
			}
		}
		if cn.Denylist()[b.MaliciousIdentities()[0]] {
			denied++
		}
	}
	if denied < 3 {
		t.Fatalf("colluding client denied at %d consensus nodes, want >= 2f+1", denied)
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}

// TestEchoAdversaryUnderDropStorm overlays the §5.2 echo adversary with a
// drop storm on the leader's consensus egress. The storm forces view
// changes and block retransmissions while echoed copies keep arriving —
// the replay check must keep discarding them (the sequencer multicast is
// not stormed, so originals still win), leaving the denylist empty, and
// the retransmission machinery must land every legitimate transaction.
func TestEchoAdversaryUnderDropStorm(t *testing.T) {
	cfg := testConfig()
	c, gen := build(t, cfg)
	e := NewEchoAdversary(c)
	e.Start(20 * time.Millisecond)

	storm := []Fault{{
		Kind:     KindDropStorm,
		At:       types.Duration(100 * time.Millisecond),
		Duration: types.Duration(200 * time.Millisecond),
		Rate:     0.6,
	}}
	if err := ValidateSchedule(storm); err != nil {
		t.Fatal(err)
	}
	Install(c.Deployment, c, gen, storm, 99)

	load(c, gen, 0, 1500, 500*time.Microsecond)
	c.Run(4 * time.Second)

	if e.Echoed == 0 {
		t.Fatal("echo adversary never fired")
	}
	if c.Collector.ViewChanges == 0 {
		t.Fatal("storm never forced a view change — the overlay tested nothing")
	}
	if got := c.Collector.NumCommitted(); got != 1500 {
		t.Fatalf("committed %d of 1500 under echo + storm", got)
	}
	for _, cn := range c.ConsNodes {
		if len(cn.Denylist()) != 0 {
			t.Fatalf("denylist non-empty: storm turned echoed copies into false accusations: %v", cn.Denylist())
		}
	}
	if err := c.CheckSafety(); err != nil {
		t.Fatal(err)
	}
}
