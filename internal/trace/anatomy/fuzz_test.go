package anatomy

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bidl-framework/bidl/internal/trace"
)

// FuzzTraceJSONL walks the `bidl report` path over arbitrary bytes: a file
// ValidateJSONL accepts must compute and render (text and CSV) without a
// panic, whatever event sequence it describes. Seeds come from a recorded
// run: its first 4 KB (lifecycle events) and one line of every other type.
func FuzzTraceJSONL(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "bidl", "testdata", "run-300ms.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	head := data[:4096]
	f.Add(head[:bytes.LastIndexByte(head, '\n')+1])
	var mixed []string
	for _, typ := range []string{"tx", "phase", "node", "link"} {
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if strings.HasPrefix(line, `{"type":"`+typ+`"`) {
				mixed = append(mixed, line)
				break
			}
		}
	}
	f.Add([]byte(strings.Join(mixed, "")))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := trace.ValidateJSONL(bytes.NewReader(b))
		if err != nil {
			return
		}
		rep := Compute(d.TxEvents, d.PhaseEvents, Options{})
		if err := rep.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := rep.CSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
