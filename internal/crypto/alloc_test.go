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

// TestHashAllAllocs pins HashAll of up to 256 framed bytes at zero
// allocations: the parts are framed into a stack buffer and hashed there.
func TestHashAllAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation pins hold for the plain build only")
	}
	id, key, val := make([]byte, 32), []byte("sb:chk:acct-12345"), []byte("1000000")
	if allocs := testing.AllocsPerRun(200, func() { HashAll(id, key, val, id, id) }); allocs != 0 {
		t.Fatalf("HashAll of 160 framed bytes = %v allocs/op, want 0", allocs)
	}
}
