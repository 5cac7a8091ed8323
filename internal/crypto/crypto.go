// Package crypto implements the cryptographic primitives BIDL depends on:
// SHA-256 hashing, digital signatures over an explicit membership registry
// (§3.1: every node and client has a unique key pair), and MACs.
//
// Two signature schemes are provided behind one interface:
//
//   - Ed25519Scheme: real ed25519 signatures; used by unit tests, examples,
//     and anywhere authenticity actually matters.
//   - HMACScheme: an HMAC-SHA256 stand-in whose per-identity secrets derive
//     from a master seed. It is NOT a signature scheme (verifiers could
//     forge), but inside a simulation where the framework itself is the only
//     verifier it provides the same interface at ~100x less wall-clock cost.
//     Virtual crypto *cost* is charged separately from the cost model, so
//     simulation results are identical under either scheme.
package crypto

import (
	"crypto/ed25519"
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

// HashAll hashes the concatenation of the given byte slices, length-prefixing
// each part so that boundaries are unambiguous.
func HashAll(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
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

// Ed25519Scheme implements Scheme with real ed25519 keys. Keys are derived
// deterministically from a master seed and the identity name so that
// independently constructed schemes with the same seed agree.
type Ed25519Scheme struct {
	mu     sync.RWMutex
	master [32]byte
	priv   map[Identity]ed25519.PrivateKey
	pub    map[Identity]ed25519.PublicKey
}

// NewEd25519Scheme creates a scheme whose keys derive from seed.
func NewEd25519Scheme(seed []byte) *Ed25519Scheme {
	return &Ed25519Scheme{
		master: sha256.Sum256(seed),
		priv:   make(map[Identity]ed25519.PrivateKey),
		pub:    make(map[Identity]ed25519.PublicKey),
	}
}

// Register implements Scheme.
func (s *Ed25519Scheme) Register(id Identity) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.priv[id]; ok {
		return
	}
	seed := HashAll(s.master[:], []byte(id))
	priv := ed25519.NewKeyFromSeed(seed[:])
	s.priv[id] = priv
	s.pub[id] = priv.Public().(ed25519.PublicKey)
}

// Sign implements Scheme.
func (s *Ed25519Scheme) Sign(id Identity, msg []byte) (Signature, error) {
	s.mu.RLock()
	priv, ok := s.priv[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("crypto: unknown identity %q", id)
	}
	return Signature(ed25519.Sign(priv, msg)), nil
}

// Verify implements Scheme.
func (s *Ed25519Scheme) Verify(id Identity, msg []byte, sig Signature) bool {
	s.mu.RLock()
	pub, ok := s.pub[id]
	s.mu.RUnlock()
	if !ok || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// Known implements Scheme.
func (s *Ed25519Scheme) Known(id Identity) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.priv[id]
	return ok
}

// HMACScheme implements Scheme with HMAC-SHA256 tags. See the package
// comment for the trust caveat: this is a simulation-only stand-in.
//
// Keyed HMAC states are recycled through a per-identity sync.Pool: hmac.New
// costs three allocations and two key-block hashes, and on the hot path the
// same few identities sign/verify once per message. Pools are safe for the
// PDES engine's concurrent partitions.
type HMACScheme struct {
	mu     sync.RWMutex
	master [32]byte
	keys   map[Identity][]byte
	macs   map[Identity]*sync.Pool
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
	s.macs[id] = &sync.Pool{New: func() interface{} { return hmac.New(sha256.New, key) }}
}

// Sign implements Scheme.
func (s *HMACScheme) Sign(id Identity, msg []byte) (Signature, error) {
	s.mu.RLock()
	pool, ok := s.macs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("crypto: unknown identity %q", id)
	}
	mac := pool.Get().(hash.Hash)
	mac.Reset()
	mac.Write(msg)
	tag := mac.Sum(make([]byte, 0, sha256.Size))
	pool.Put(mac)
	return Signature(tag), nil
}

// Verify implements Scheme.
func (s *HMACScheme) Verify(id Identity, msg []byte, sig Signature) bool {
	want, err := s.Sign(id, msg)
	if err != nil {
		return false
	}
	return hmac.Equal(want, sig)
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
