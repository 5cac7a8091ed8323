// Package crypto implements the cryptographic primitives BIDL depends on:
// SHA-256 hashing, signatures over an explicit membership registry (§3.1:
// every node and client has a unique key), and MACs.
//
// The one Scheme is HMACScheme, an HMAC-SHA256 stand-in for signatures whose
// per-identity secrets derive from a master seed. It is NOT a signature
// scheme (verifiers could forge), but inside a simulation where the framework
// itself is the only verifier it provides the interface at a fraction of a
// real signer's wall-clock cost. Virtual crypto *cost* is charged separately
// from the cost model, so simulation results do not depend on the signer.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
)

// Digest is a SHA-256 hash value.
type Digest [32]byte

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// HashAll hashes the concatenation of the given byte slices, each framed by
// AppendPart so that boundaries are unambiguous. Up to 256 framed bytes are
// hashed from a stack buffer, more stream through a hasher.
func HashAll(parts ...[]byte) Digest {
	n := 0
	for _, p := range parts {
		n += 8 + len(p)
	}
	if n <= 256 {
		var buf [256]byte
		b := buf[:0]
		for _, p := range parts {
			b = AppendPart(b, p)
		}
		return Hash(b)
	}
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// AppendPart appends p's length as 8 big-endian bytes, then p: HashAll's
// framing, so Hash of appended parts equals HashAll of them and a caller can
// frame its fields into a stack buffer instead of building a slice of parts.
func AppendPart[P []byte | string](buf []byte, p P) []byte {
	return append(binary.BigEndian.AppendUint64(buf, uint64(len(p))), p...)
}

// String renders the first 8 bytes of the digest in hex.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// Signature is an opaque signature (or MAC tag) over a message.
type Signature []byte

// Identity names a member (node or client) in the permissioned network.
type Identity string

// Scheme signs and verifies messages for registered identities.
type Scheme interface {
	// Register creates a key pair for id. Registering an existing identity
	// is a no-op.
	Register(id Identity)
	// Sign signs msg as id. It returns an error for unknown identities.
	Sign(id Identity, msg []byte) (Signature, error)
	// Verify reports whether sig is id's valid signature over msg.
	// Unknown identities never verify.
	Verify(id Identity, msg []byte, sig Signature) bool
	// Known reports whether id has been registered.
	Known(id Identity) bool
}

// HMACScheme implements Scheme with HMAC-SHA256 tags. See the package
// comment for the trust caveat: this is a simulation-only stand-in.
//
// Keyed HMAC states are recycled through a per-identity sync.Pool: hmac.New
// costs three allocations and two key-block hashes, and on the hot path the
// same few identities sign/verify once per message. Each pooled state keeps a
// tag-sized scratch next to it, so Verify computes and compares in place and
// allocates nothing. Pools are safe for the PDES engine's concurrent
// partitions.
type HMACScheme struct {
	mu     sync.RWMutex
	master [32]byte
	keys   map[Identity][]byte
	macs   map[Identity]*sync.Pool
}

// hmacState is one pooled keyed HMAC and the scratch its tags go to.
type hmacState struct {
	mac hash.Hash
	tag [sha256.Size]byte
}

// NewHMACScheme creates a scheme whose per-identity secrets derive from seed.
func NewHMACScheme(seed []byte) *HMACScheme {
	return &HMACScheme{
		master: sha256.Sum256(seed),
		keys:   make(map[Identity][]byte),
		macs:   make(map[Identity]*sync.Pool),
	}
}

// Register implements Scheme.
func (s *HMACScheme) Register(id Identity) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.keys[id]; ok {
		return
	}
	k := HashAll(s.master[:], []byte("hmac-key"), []byte(id))
	s.keys[id] = k[:]
	key := k[:]
	s.macs[id] = &sync.Pool{New: func() interface{} { return &hmacState{mac: hmac.New(sha256.New, key)} }}
}

// Sign implements Scheme.
func (s *HMACScheme) Sign(id Identity, msg []byte) (Signature, error) {
	pool, st := s.tag(id, msg)
	if st == nil {
		return nil, fmt.Errorf("crypto: unknown identity %q", id)
	}
	defer pool.Put(st)
	return append(make(Signature, 0, sha256.Size), st.tag[:]...), nil
}

// Verify implements Scheme.
func (s *HMACScheme) Verify(id Identity, msg []byte, sig Signature) bool {
	pool, st := s.tag(id, msg)
	if st == nil {
		return false
	}
	defer pool.Put(st)
	return hmac.Equal(st.tag[:], sig)
}

// tag computes id's tag over msg into the scratch of st, a state drawn from
// pool that the caller puts back; st is nil for an unknown identity.
func (s *HMACScheme) tag(id Identity, msg []byte) (pool *sync.Pool, st *hmacState) {
	s.mu.RLock()
	pool = s.macs[id]
	s.mu.RUnlock()
	if pool == nil {
		return nil, nil
	}
	st = pool.Get().(*hmacState)
	st.mac.Reset()
	st.mac.Write(msg)
	st.mac.Sum(st.tag[:0])
	return pool, st
}

// Known implements Scheme.
func (s *HMACScheme) Known(id Identity) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.keys[id]
	return ok
}

// Verdict memoises one signature check on a message object that many
// replicas receive by pointer. The simulator charges each receiver's virtual
// verification cost separately, so re-running the real check per receiver
// buys nothing: the first receiver runs it and the rest read the outcome.
//
// The outcome is remembered together with the key it was computed for (the
// signer's index, or whatever else selects the check), so a receiver asking
// about a different key never reads another's answer. That is sound because
// the check is a pure function of the key and of message fields nobody
// mutates once the message is shared; code that does change the signed
// fields or the signature must call Reset. The state is one atomic word:
// receivers in concurrent PDES partitions may race to fill it, and since they
// compute the same value either write is correct. The zero value is unknown.
type Verdict struct{ state atomic.Uint64 }

const (
	verdictValid   = 1
	verdictInvalid = 2
	verdictMask    = 3
)

// Check returns the memoised outcome for key, running verify to fill it when
// unknown or when the memo holds another key's outcome.
func (v *Verdict) Check(key uint32, verify func() bool) bool {
	tag := uint64(key) << 2
	if s := v.state.Load(); s&verdictMask != 0 && s&^verdictMask == tag {
		return s&verdictMask == verdictValid
	}
	ok := verify()
	if ok {
		v.state.Store(tag | verdictValid)
	} else {
		v.state.Store(tag | verdictInvalid)
	}
	return ok
}

// Reset forgets the outcome.
func (v *Verdict) Reset() { v.state.Store(0) }
