package ledger

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestRWSetDigestKnownAnswers pins a result digest byte for byte: the
// "ok"/"aborted" tag, then per write its key, a delete flag and its value,
// each length-prefixed. Digests only ever meet other digests in the
// simulator, so these answers are the one check that the framing itself
// does not drift.
func TestRWSetDigestKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		rw   RWSet
		want string
	}{
		{"ok, no writes", RWSet{}, "d2b651c55a2e9fddaae1ff2aeeddfc3994186ce39e35aeae5c8d227b88592f52"},
		{"aborted, no writes", RWSet{Aborted: true}, "4880e4bc368d546d5dfa4c5eaf5fbbff591c5d8f167dc62257e8aed322863d50"},
		{"ok, two writes", RWSet{Writes: []Write{{Key: "sb:chk:acct-1", Val: []byte("900")}, {Key: "sb:chk:acct-2", Val: []byte("1100")}}}, "9b272682829b44b1ed2098b77ee0752b2074f0828124ab7b29105ed058b5ad63"},
		{"aborted keeps its writes", RWSet{Aborted: true, Writes: []Write{{Key: "k", Val: []byte("v")}}}, "611db18b0f38fc3ce1f5199478d29d3e9d2eb5aa77162aecd53936d7cea45d2f"},
		{"a delete", RWSet{Writes: []Write{{Key: "gone", Delete: true}, {Key: "k", Val: []byte("v")}}}, "a2881c262e1e1261732070f090b6f2561b87b69b4cdef7fb30192e09a05490a4"},
		{"an empty value", RWSet{Writes: []Write{{Key: "k", Val: []byte{}}}}, "345c7a949fbdc45100e40f0533a66f7a60d640bc2ac620d887acbfcf2cf0cc19"},
		{"a value over 512 bytes", RWSet{Writes: []Write{{Key: "big", Val: bytes.Repeat([]byte("0123456789"), 60)}, {Key: "z", Delete: true}}}, "0d0649d08810f5c7fece3035ef637eeae011d773dd6c6764a260ae3856f69cad"},
	} {
		d := c.rw.Digest()
		if got := hex.EncodeToString(d[:]); got != c.want {
			t.Errorf("%s: Digest = %s, want %s", c.name, got, c.want)
		}
	}
}
