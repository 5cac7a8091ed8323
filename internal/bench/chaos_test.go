package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/bidl-framework/bidl/examples"
	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/scenario"
)

// TestChaosExperimentRegistered smoke-checks the sweep wiring: the runs are
// the spec files chaos.Catalog names (read from disk here, embedded there), in
// its order and with no embedded file left over; every spec validates, and the
// table assembles one row per catalog entry.
func TestChaosExperimentRegistered(t *testing.T) {
	e, ok := Get("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	o := Options{Scale: 1.0, Seed: 1}
	specs := e.Scenarios(o)
	if len(specs) != len(chaos.Catalog()) {
		t.Fatalf("%d sweep points, want %d", len(specs), len(chaos.Catalog()))
	}
	embedded, err := examples.ChaosSpecs.ReadDir(".")
	if err != nil || len(embedded) != len(specs) {
		t.Fatalf("%d embedded spec files (err %v), catalog has %d entries", len(embedded), err, len(specs))
	}
	for i, e := range chaos.Catalog() {
		data, err := os.ReadFile(filepath.Join("..", "..", e.File))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fromFile, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", e.ID, err)
		}
		fromFile.Seed = o.Seed
		if !reflect.DeepEqual(fromFile, specs[i]) {
			t.Errorf("sweep run %d is not catalog entry %s (%s):\nfile: %+v\nrun:  %+v", i, e.ID, e.File, fromFile, specs[i])
		}
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
		if sp.Seed != o.Seed {
			t.Errorf("%s: seed %d not threaded from options", sp.Name, sp.Seed)
		}
	}
	tab := e.Table(o, make([]Result, len(specs)))
	if len(tab.Rows) != len(specs) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(specs))
	}
}
