package bench

import (
	"reflect"
	"testing"

	"github.com/bidl-framework/bidl/internal/scenario"
)

// TestRegistryScenariosValidAndSerializable asserts the acceptance criterion
// of the scenario-layer refactor: every registered experiment is expressible
// as declarative scenario.Scenario values — each sweep produces at least one
// spec, every spec passes Validate, and every spec survives a JSON round-trip
// (so `bidl bench -dump-scenarios` output can be replayed through
// `bidl run -scenario`).
func TestRegistryScenariosValidAndSerializable(t *testing.T) {
	o := Options{Scale: 0.1, Seed: 7}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			specs := e.Scenarios(o)
			if len(specs) == 0 {
				t.Fatal("experiment produced no scenarios")
			}
			names := make(map[string]bool, len(specs))
			for i, sp := range specs {
				if err := sp.Validate(); err != nil {
					t.Fatalf("sweep point %d (%s): %v", i, sp.Name, err)
				}
				if sp.Name == "" {
					t.Fatalf("sweep point %d has no name", i)
				}
				if names[sp.Name] {
					t.Fatalf("duplicate scenario name %q", sp.Name)
				}
				names[sp.Name] = true
				data, err := sp.Marshal()
				if err != nil {
					t.Fatalf("%s: marshal: %v", sp.Name, err)
				}
				back, err := scenario.Parse(data)
				if err != nil {
					t.Fatalf("%s: parse: %v", sp.Name, err)
				}
				if !reflect.DeepEqual(sp, back) {
					t.Fatalf("%s: JSON round-trip mismatch:\n in: %+v\nout: %+v", sp.Name, sp, back)
				}
			}
		})
	}
}
