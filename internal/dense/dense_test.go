package dense

import (
	"fmt"
	"sync"
	"testing"
)

// Eight goroutines intern overlapping names at once: a name has one id
// whoever asked, ids are dense, and an id leads back to its name. Run under
// -race: the table is safe for concurrent interning.
func TestTableConcurrentIntern(t *testing.T) {
	const workers, names = 8, 2000
	tab := NewTable[string]()
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, names)
			for i := range ids {
				// Every worker walks the same names from its own start, so
				// first-interner varies name by name.
				n := (i + w*names/workers) % names
				ids[n] = tab.Intern(fmt.Sprintf("key-%d", n))
				if id, ok := tab.Lookup(fmt.Sprintf("key-%d", n)); !ok || id != ids[n] {
					t.Errorf("worker %d: Lookup(key-%d) = %d, %t right after Intern gave %d", w, n, id, ok, ids[n])
				}
				if snap := tab.Names(); snap[ids[n]] != fmt.Sprintf("key-%d", n) {
					t.Errorf("worker %d: id %d names %q, interned as key-%d", w, ids[n], snap[ids[n]], n)
				}
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	all := tab.Names()
	if len(all) != names {
		t.Fatalf("%d ids for %d names: ids are not dense", len(all), names)
	}
	seen := make([]bool, names)
	for n := 0; n < names; n++ {
		id := got[0][n]
		for w := 1; w < workers; w++ {
			if got[w][n] != id {
				t.Fatalf("key-%d has id %d for worker 0 and %d for worker %d", n, id, got[w][n], w)
			}
		}
		if int(id) >= names || seen[id] {
			t.Fatalf("key-%d has id %d: out of range or given twice", n, id)
		}
		seen[id] = true
		if all[id] != fmt.Sprintf("key-%d", n) {
			t.Fatalf("id %d names %q, not key-%d", id, all[id], n)
		}
	}
	if _, ok := tab.Lookup("never"); ok {
		t.Fatal("Lookup found a name nobody interned")
	}
}

// Pages reads nil where nothing was stored, grows a page at a time, and a
// pointer into a page survives later growth.
func TestPages(t *testing.T) {
	var p Pages[int]
	if p.Get(0) != nil || p.Get(1<<20) != nil {
		t.Fatal("empty Pages returned a record")
	}
	first := p.At(3)
	*first = 7
	*p.At(5 * PageSize) = 9
	if len(p) != 6 || p[1] != nil || p[4] != nil {
		t.Fatalf("storing at ids 3 and %d left %d pages, pages 1 and 4 allocated: %t, %t", 5*PageSize, len(p), p[1] != nil, p[4] != nil)
	}
	if p.Get(PageSize) != nil {
		t.Fatal("Get allocated or invented a page")
	}
	if got := p.Get(3); got != first || *got != 7 {
		t.Fatal("pointer into the first page did not survive growth")
	}
	if got := p.Get(4); got == nil || *got != 0 {
		t.Fatal("a neighbour in a stored page does not read as the zero record")
	}
}

// A memo resolved in one table is read only by a reader on that table: a
// reader on another table, or of an unresolved memo, gets that table's id by
// name, and Lookup never adds a name.
func TestOrdinals(t *testing.T) {
	names := []string{"a", "b", "c"}
	home, other := NewTable[string](), NewTable[string]()
	other.Intern("c")
	var memo, none Ordinals[string]
	memo.Resolve(home, make([]uint32, len(names)), func(i int) string { return names[i] })
	for i, name := range names {
		if id := memo.Intern(home, i, name); id != uint32(i) {
			t.Fatalf("%s: memo id %d in the resolving table, want %d", name, id, i)
		}
		if id, ok := none.Lookup(home, i, name); !ok || id != uint32(i) {
			t.Fatalf("%s: unresolved Lookup = %d, %t, want %d", name, id, ok, i)
		}
	}
	if id, ok := memo.Lookup(other, 2, "c"); !ok || id != 0 {
		t.Fatalf("c: Lookup in another table = %d, %t, want that table's 0", id, ok)
	}
	if _, ok := memo.Lookup(other, 0, "a"); ok || len(other.Names()) != 1 {
		t.Fatalf("Lookup in another table found or added a name it never held (%d names)", len(other.Names()))
	}
	if id := memo.Intern(other, 0, "a"); id != 1 || len(other.Names()) != 2 {
		t.Fatalf("Intern in another table = %d, want the next id 1", id)
	}
}
