package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/scenario"
)

// TestChaosSpecsMatchCatalogFiles pins the chaos experiment's programmatic
// sweep to the JSON spec files the catalog (and `bidl run -scenario`) runs:
// the i-th chaosSpecs entry must equal the i-th catalog entry's parsed
// file, so the two representations cannot drift apart silently.
func TestChaosSpecsMatchCatalogFiles(t *testing.T) {
	specs := chaosSpecs()
	cat := chaos.Catalog()
	if len(specs) != len(cat) {
		t.Fatalf("chaosSpecs has %d entries, catalog has %d", len(specs), len(cat))
	}
	for i, e := range cat {
		data, err := os.ReadFile(filepath.Join("..", "..", e.File))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fromFile, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", e.ID, err)
		}
		if !reflect.DeepEqual(fromFile, specs[i]) {
			t.Errorf("catalog entry %s (%s) differs from chaosSpecs[%d]:\nfile: %+v\ncode: %+v",
				e.ID, e.File, i, fromFile, specs[i])
		}
	}
}

// TestChaosExperimentRegistered smoke-checks the sweep wiring: every spec
// validates, and the table assembles one row per catalog entry.
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
