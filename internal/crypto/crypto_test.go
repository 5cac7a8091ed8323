package crypto

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func schemes() map[string]func() Scheme {
	return map[string]func() Scheme{
		"ed25519": func() Scheme { return NewEd25519Scheme([]byte("seed")) },
		"hmac":    func() Scheme { return NewHMACScheme([]byte("seed")) },
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, mk := range schemes() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Register("alice")
			msg := []byte("hello world")
			sig, err := s.Sign("alice", msg)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Verify("alice", msg, sig) {
				t.Fatal("valid signature rejected")
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for name, mk := range schemes() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Register("alice")
			sig, _ := s.Sign("alice", []byte("msg"))
			if s.Verify("alice", []byte("msG"), sig) {
				t.Fatal("tampered message verified")
			}
		})
	}
}

func TestVerifyRejectsWrongIdentity(t *testing.T) {
	for name, mk := range schemes() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Register("alice")
			s.Register("bob")
			sig, _ := s.Sign("alice", []byte("msg"))
			if s.Verify("bob", []byte("msg"), sig) {
				t.Fatal("signature verified under a different identity")
			}
		})
	}
}

func TestVerifyRejectsTruncatedSig(t *testing.T) {
	for name, mk := range schemes() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Register("alice")
			sig, _ := s.Sign("alice", []byte("msg"))
			if s.Verify("alice", []byte("msg"), sig[:len(sig)-1]) {
				t.Fatal("truncated signature verified")
			}
			if s.Verify("alice", []byte("msg"), nil) {
				t.Fatal("nil signature verified")
			}
		})
	}
}

func TestUnknownIdentity(t *testing.T) {
	for name, mk := range schemes() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if _, err := s.Sign("ghost", []byte("msg")); err == nil {
				t.Fatal("signing as unknown identity succeeded")
			}
			if s.Verify("ghost", []byte("msg"), Signature(make([]byte, 64))) {
				t.Fatal("unknown identity verified")
			}
			if s.Known("ghost") {
				t.Fatal("ghost reported as known")
			}
		})
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := NewEd25519Scheme([]byte("seed"))
	b := NewEd25519Scheme([]byte("seed"))
	a.Register("alice")
	b.Register("alice")
	sig, _ := a.Sign("alice", []byte("msg"))
	if !b.Verify("alice", []byte("msg"), sig) {
		t.Fatal("independently derived schemes disagree")
	}
	c := NewEd25519Scheme([]byte("other-seed"))
	c.Register("alice")
	if c.Verify("alice", []byte("msg"), sig) {
		t.Fatal("different master seed verified a foreign signature")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	s := NewEd25519Scheme([]byte("seed"))
	s.Register("alice")
	sig, _ := s.Sign("alice", []byte("m"))
	s.Register("alice")
	if !s.Verify("alice", []byte("m"), sig) {
		t.Fatal("re-registration changed the key")
	}
}

func TestHashAllBoundaries(t *testing.T) {
	// Length prefixing must make ("ab","c") and ("a","bc") distinct.
	if HashAll([]byte("ab"), []byte("c")) == HashAll([]byte("a"), []byte("bc")) {
		t.Fatal("HashAll is ambiguous across part boundaries")
	}
	if HashAll() == HashAll([]byte{}) {
		t.Fatal("HashAll() must differ from HashAll(empty part)")
	}
}

func TestPropertySignVerify(t *testing.T) {
	for name, mk := range schemes() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Register("p")
			f := func(msg []byte) bool {
				sig, err := s.Sign("p", msg)
				if err != nil {
					return false
				}
				return s.Verify("p", msg, sig)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPropertyHashCollisionFree(t *testing.T) {
	seen := make(map[Digest][]byte)
	f := func(data []byte) bool {
		d := Hash(data)
		if prev, ok := seen[d]; ok {
			return bytes.Equal(prev, data)
		}
		seen[d] = append([]byte(nil), data...)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestVerdictMemoisesPerKey: the check runs once per key, the outcome
// (either way) is what later callers read, another key never reads it, and
// Reset forgets it.
func TestVerdictMemoisesPerKey(t *testing.T) {
	for _, outcome := range []bool{true, false} {
		var v Verdict
		runs := 0
		check := func() bool { runs++; return outcome }
		for i := 0; i < 3; i++ {
			if got := v.Check(7, check); got != outcome {
				t.Fatalf("Check = %v, want %v", got, outcome)
			}
		}
		if runs != 1 {
			t.Fatalf("check ran %d times for one key, want 1", runs)
		}
		// A different key must not inherit key 7's outcome.
		if got := v.Check(8, func() bool { runs++; return !outcome }); got == outcome || runs != 2 {
			t.Fatalf("key 8 read key 7's verdict (got %v after %d runs)", got, runs)
		}
		v.Reset()
		if v.Check(8, check); runs != 3 {
			t.Fatalf("Reset did not forget the verdict (%d runs)", runs)
		}
	}
}

// TestVerdictConcurrent fills one verdict from many goroutines, as receivers
// in concurrent PDES partitions do; run under -race.
func TestVerdictConcurrent(t *testing.T) {
	var v Verdict
	var runs atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if !v.Check(3, func() bool { runs.Add(1); return true }) {
					t.Error("valid verdict read as invalid")
				}
			}
		}()
	}
	wg.Wait()
	if n := runs.Load(); n < 1 || n > 8 {
		t.Fatalf("check ran %d times, want between 1 and one per goroutine", n)
	}
}
