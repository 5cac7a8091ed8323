package crypto

import "testing"

// TestHMACVerifyAllocs pins Verify at zero allocations: the tag goes to the
// scratch next to the pooled state and is compared there.
func TestHMACVerifyAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	s := NewHMACScheme([]byte("seed"))
	s.Register("alice")
	msg := []byte("a partition's signing bytes")
	sig, _ := s.Sign("alice", msg)
	if allocs := testing.AllocsPerRun(200, func() {
		if !s.Verify("alice", msg, sig) {
			t.Fatal("valid signature rejected")
		}
	}); allocs != 0 {
		t.Fatalf("Verify = %v allocs/op, want 0", allocs)
	}
}
