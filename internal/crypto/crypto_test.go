package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func schemes() map[string]func() Scheme {
	return map[string]func() Scheme{
		"hmac": func() Scheme { return NewHMACScheme([]byte("seed")) },
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
	a := NewHMACScheme([]byte("seed"))
	b := NewHMACScheme([]byte("seed"))
	a.Register("alice")
	b.Register("alice")
	sig, _ := a.Sign("alice", []byte("msg"))
	if !b.Verify("alice", []byte("msg"), sig) {
		t.Fatal("independently derived schemes disagree")
	}
	c := NewHMACScheme([]byte("other-seed"))
	c.Register("alice")
	if c.Verify("alice", []byte("msg"), sig) {
		t.Fatal("different master seed verified a foreign signature")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	s := NewHMACScheme([]byte("seed"))
	s.Register("alice")
	sig, _ := s.Sign("alice", []byte("m"))
	s.Register("alice")
	if !s.Verify("alice", []byte("m"), sig) {
		t.Fatal("re-registration changed the key")
	}
}

// TestHMACTags checks tags against HMAC-SHA256 computed afresh under the
// derived key. Verify rejects a changed message, a changed, truncated, longer
// or empty signature and an unknown identity; Sign's results are distinct
// slices that keep their bytes whatever the scheme computes next, so a
// signature never aliases a pooled state's scratch.
func TestHMACTags(t *testing.T) {
	s := NewHMACScheme([]byte("seed"))
	s.Register("alice")
	tag := func(msg string) []byte {
		k := HashAll(s.master[:], []byte("hmac-key"), []byte("alice"))
		m := hmac.New(sha256.New, k[:])
		m.Write([]byte(msg))
		return m.Sum(nil)
	}
	a, _ := s.Sign("alice", []byte("a"))
	b, _ := s.Sign("alice", []byte("b"))
	if &a[0] == &b[0] || !bytes.Equal(a, tag("a")) || !bytes.Equal(b, tag("b")) {
		t.Fatalf("back-to-back Sign: %x and %x share storage or are not the tags %x and %x", a, b, tag("a"), tag("b"))
	}
	s.Verify("alice", []byte("c"), b)
	s.Sign("alice", []byte("d"))
	if !bytes.Equal(a, tag("a")) || !bytes.Equal(b, tag("b")) {
		t.Fatal("a returned signature changed when the scheme computed another tag")
	}
	if !s.Verify("alice", []byte("a"), a) {
		t.Fatal("valid signature rejected")
	}
	flipped := append(Signature(nil), a...)
	flipped[len(flipped)-1] ^= 1
	for name, tc := range map[string]struct {
		id  Identity
		msg string
		sig Signature
	}{
		"changed message":   {"alice", "b", a},
		"changed signature": {"alice", "a", flipped},
		"truncated":         {"alice", "a", a[:len(a)-1]},
		"longer":            {"alice", "a", append(append(Signature(nil), a...), 0)},
		"empty":             {"alice", "a", Signature{}},
		"nil":               {"alice", "a", nil},
		"unknown identity":  {"ghost", "a", a},
	} {
		if s.Verify(tc.id, []byte(tc.msg), tc.sig) {
			t.Errorf("%s: verified", name)
		}
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

// TestVerdictConcurrent fills one verdict from many goroutines, as concurrent
// receivers would; run under -race.
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
