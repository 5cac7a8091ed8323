package consensus

import (
	"sync"
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
)

func TestRoundRobin(t *testing.T) {
	p := RoundRobin{N: 4}
	for v := uint64(0); v < 12; v++ {
		if got := p.Leader(v); got != int(v%4) {
			t.Fatalf("leader(%d) = %d", v, got)
		}
	}
}

func TestRandomEpochEachNodeLeadsOncePerEpoch(t *testing.T) {
	// §4.6: views are grouped into epochs of N views and each consensus
	// node is the leader of exactly one view per epoch.
	for _, n := range []int{4, 7, 13} {
		p := RandomEpoch{N: n, Seed: crypto.Hash([]byte("seed"))}
		for epoch := uint64(0); epoch < 5; epoch++ {
			seen := make(map[int]bool, n)
			for i := 0; i < n; i++ {
				l := p.Leader(epoch*uint64(n) + uint64(i))
				if l < 0 || l >= n {
					t.Fatalf("leader out of range: %d", l)
				}
				if seen[l] {
					t.Fatalf("n=%d epoch=%d: node %d leads twice", n, epoch, l)
				}
				seen[l] = true
			}
		}
	}
}

func TestRandomEpochDeterministic(t *testing.T) {
	a := RandomEpoch{N: 7, Seed: crypto.Hash([]byte("x"))}
	b := RandomEpoch{N: 7, Seed: crypto.Hash([]byte("x"))}
	for v := uint64(0); v < 50; v++ {
		if a.Leader(v) != b.Leader(v) {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestRandomEpochUnpredictableAcrossEpochs(t *testing.T) {
	// The rotation must not be the same permutation every epoch (that
	// would let the adversary predict successors, §4.6).
	p := RandomEpoch{N: 13, Seed: crypto.Hash([]byte("x"))}
	same := true
	for i := 0; i < 13; i++ {
		if p.Leader(uint64(i)) != p.Leader(uint64(13+i)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epoch 0 and 1 have identical leader orders")
	}
}

// TestRandomEpochMemoMatchesSchedule: the memoised Leader equals a fresh,
// unmemoised derivation for every view of 10 epochs, with epochs visited
// out of order and repeatedly, and derives each epoch's schedule once.
func TestRandomEpochMemoMatchesSchedule(t *testing.T) {
	const epochs = 10
	for _, seed := range []string{"seed-a", "seed-b"} {
		for _, n := range []int{4, 31, 97} {
			p := &RandomEpoch{N: n, Seed: crypto.Hash([]byte(seed))}
			for pass := 0; pass < 2; pass++ {
				for e := uint64(0); e < epochs; e++ {
					epoch := (e * 7) % epochs // 7 is coprime to 10: a scrambled order
					want := (&RandomEpoch{N: n, Seed: p.Seed}).permutation(epoch)
					for i := n - 1; i >= 0; i-- {
						if got := p.Leader(epoch*uint64(n) + uint64(i)); got != want[i] {
							t.Fatalf("seed=%s n=%d epoch=%d slot=%d: leader %d, want %d", seed, n, epoch, i, got, want[i])
						}
					}
				}
			}
			if len(p.perms) != epochs {
				t.Fatalf("seed=%s n=%d: %d schedules derived for %d epochs", seed, n, len(p.perms), epochs)
			}
		}
	}
}

// TestRandomEpochConcurrent: one policy instance serves nodes in concurrent
// PDES partitions; run under -race.
func TestRandomEpochConcurrent(t *testing.T) {
	p := &RandomEpoch{N: 31, Seed: crypto.Hash([]byte("x"))}
	want := (&RandomEpoch{N: 31, Seed: p.Seed}).Leader(40)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(0); v < 31*4; v++ {
				p.Leader(v)
			}
			if got := p.Leader(40); got != want {
				t.Errorf("leader(40) = %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestQuorums(t *testing.T) {
	c := Config{N: 7, F: 2}
	if c.Quorum() != 5 || c.FastQuorum() != 7 {
		t.Fatalf("quorums %d/%d", c.Quorum(), c.FastQuorum())
	}
}

func TestValueSize(t *testing.T) {
	v := Value{Data: make([]byte, 100)}
	if v.Size() != 132 {
		t.Fatalf("size %d", v.Size())
	}
}
