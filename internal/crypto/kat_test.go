package crypto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestHashAllKnownAnswers pins HashAll's framing (an 8-byte big-endian
// length before each part) byte for byte. Nothing the simulator reports
// depends on a digest's value, so a framing slip would stay self-consistent
// everywhere else; these answers were computed with the streaming hasher.
func TestHashAllKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		name  string
		parts [][]byte
		want  string
	}{
		{"no parts", nil, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"one empty part", [][]byte{{}}, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{"one nil part", [][]byte{nil}, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{"three short parts", [][]byte{[]byte("ok"), []byte("sb:chk:acct-7"), {0}}, "c630bff5f0cbf3b6e66ffc235d46978886ab354cd0ddc7ae0967e3146543188f"},
		{"framed to exactly 256 bytes", [][]byte{bytes.Repeat([]byte{'a'}, 248)}, "a4fa113f5d603eee389c467277b8313ebb928e96a671f44e4ee9adc14ab64bed"},
		{"framed to 257 bytes", [][]byte{bytes.Repeat([]byte{'a'}, 249)}, "9c70387cff6208ba1ec52601bf0127ab588a42f4a94e6285a1cdeec3f6294eab"},
		{"parts totalling over 256 bytes", [][]byte{bytes.Repeat([]byte{'x'}, 200), nil, bytes.Repeat([]byte{'y'}, 100)}, "ade5b853a61cf3f189d23590934e02f0767c4bd0ba5d2e5b6544d6522d96faec"},
	} {
		d := HashAll(c.parts...)
		if got := hex.EncodeToString(d[:]); got != c.want {
			t.Errorf("%s: HashAll = %s, want %s", c.name, got, c.want)
		}
	}
}
