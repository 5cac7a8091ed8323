package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the spec's front door, the path of
// `bidl run -scenario`: Parse and Validate answer with an error, never a
// panic, and a spec that parses survives Marshal → Parse unchanged. Seeds
// are the checked-in example specs plus one that sets every field of a fault
// entry and of tuning (no example does).
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenario-*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no example specs to seed from (%v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"load": {"rate": 100, "window": "10ms"},
		"tuning": {"block_size": 9, "block_timeout": "2ms", "view_timeout": "30ms", "client_timeout": "40ms",
			"disable_denylist": true,
			"disable_multicast": true, "consensus_on_payload": true, "disable_speculation": true},
		"faults": [{"kind": "smart", "at": "1ms", "duration": "2ms", "org": 1, "node": 2, "dc": 3, "shard": 4,
			"count": 5, "period": "6ms", "rate": 0.7, "window": 8, "interval": "9ms", "detect_lag": "10ms",
			"malicious_clients": [1, 2]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		_ = s.Validate() // may reject; must not panic
		out, err := s.Marshal()
		if err != nil {
			t.Fatalf("a parsed spec does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Marshal output does not parse: %v\n%s", err, out)
		}
		if again, _ := back.Marshal(); !bytes.Equal(again, out) {
			t.Fatalf("Marshal → Parse → Marshal changed the spec:\n%s\n---\n%s", out, again)
		}
	})
}
