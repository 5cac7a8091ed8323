package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/bidl-framework/bidl/internal/dense"
)

// Model test for Shared: four views of one shared state commit random blocks
// of puts, overwrites and deletes (some shadowing base keys) at random lags.
// View 1 leaves at a drawn step and goes on with blocks of its own; view 0
// may stop following and must be made to leave once it trails by more than
// the lag bound, and no view may be made to leave within it. The reference for a view at height h is a state of its own
// that applied the first h blocks; after every step each view must read like
// its reference (Get by name, ValidateResolved by id, Len, Equal, Digest), and
// the shared state must hold undo records for exactly the blocks above its
// slowest view. The view writing a block is checked after each of its
// transactions too: it reads its own writes to the open block, every other
// view still reads below it.

const sharedModelLag = 5

// sharedModel is one run: the views, each one's height and, once it stopped
// sharing, its own reference; snaps[h] is the reference at height h. While
// view writing writes a block, partial is its reference: the block's
// transactions so far applied.
type sharedModel struct {
	t      *testing.T
	sh     *Shared
	views  [4]*State
	height [4]uint64
	own    [4]*State
	snaps  []*State
	blocks [][][]Write
	rng    *rand.Rand // the blocks' content
	left   bool       // view 1 left
	frozen bool       // view 0 stopped following

	writing int
	partial *State
}

// next returns the next drawn byte.
func (m *sharedModel) next() byte { return byte(m.rng.Intn(256)) }

var sharedModelKeys = func() []string {
	var ks []string
	for i := 0; i < 10; i++ {
		ks = append(ks, fmt.Sprintf("k%d", i)) // base keys
	}
	for i := 0; i < 8; i++ {
		ks = append(ks, fmt.Sprintf("f%d", i))
	}
	return ks
}()

// drawBlock draws one to four transactions of one to three writes each.
func (m *sharedModel) drawBlock() [][]Write {
	txs := make([][]Write, 1+m.next()%4)
	for i := range txs {
		for k := 1 + m.next()%3; k > 0; k-- {
			w := Write{Key: sharedModelKeys[int(m.next())%len(sharedModelKeys)]}
			switch m.next() % 5 {
			case 0, 1:
				w.Delete = true
			case 2:
				w.Val = []byte("v1") // a base value
			default:
				w.Val = []byte(fmt.Sprintf("w%d", m.next()%4))
			}
			txs[i] = append(txs[i], w)
		}
	}
	return txs
}

func applyBlock(st *State, num uint64, txs [][]Write) {
	for i, ws := range txs {
		st.Apply(ws, Version{Block: num, Tx: i})
	}
}

// step advances view i one block: through the shared state while it shares
// (writing the block if it leads), else on its own.
func (m *sharedModel) step(i int) string {
	v, h := m.views[i], m.height[i]
	if !v.Sharing() {
		txs := m.block(h)
		if i == 1 { // diverged: its blocks write one key more
			txs = append(txs, []Write{{Key: "div", Val: []byte{byte(h)}}})
		}
		applyBlock(v, h, txs)
		applyBlock(m.own[i], h, txs)
		m.height[i]++
		return fmt.Sprintf("view %d commits block %d alone", i, h)
	}
	what := fmt.Sprintf("view %d follows to block %d", i, h)
	if v.Leads() {
		txs := m.block(h)
		v.Begin()
		m.writing, m.partial = i, m.snaps[h].Clone()
		for j, ws := range txs {
			v.Apply(ws, Version{Block: h, Tx: j})
			m.partial.Apply(ws, Version{Block: h, Tx: j})
			m.check(fmt.Sprintf("view %d writing block %d, transaction %d", i, h, j))
		}
		m.partial = nil
		what = fmt.Sprintf("view %d writes block %d", i, h)
	}
	v.Advance()
	m.height[i]++
	return what
}

// block returns block h, drawing it if nobody reached it yet.
func (m *sharedModel) block(h uint64) [][]Write {
	for uint64(len(m.blocks)) <= h {
		txs := m.drawBlock()
		ref := m.snaps[len(m.snaps)-1].Clone()
		applyBlock(ref, uint64(len(m.blocks)), txs)
		m.blocks, m.snaps = append(m.blocks, txs), append(m.snaps, ref)
	}
	return m.blocks[h]
}

func (m *sharedModel) ref(i int) *State {
	if m.partial != nil && i == m.writing {
		return m.partial
	}
	if m.own[i] != nil {
		return m.own[i]
	}
	return m.snaps[m.height[i]]
}

func (m *sharedModel) check(what string) {
	t := m.t
	t.Helper()
	universe := append([]string{"div", "never", "k10"}, sharedModelKeys...)
	for i, v := range m.views {
		if !v.Sharing() && m.own[i] == nil { // it left, or trailed past the bound
			if !(i == 1 && m.left) && m.sh.h-m.height[i] <= sharedModelLag {
				t.Fatalf("%s: view %d stopped sharing at height %d with the head at %d, within the bound %d",
					what, i, m.height[i], m.sh.h, sharedModelLag)
			}
			m.own[i] = m.snaps[m.height[i]].Clone()
		}
		ref := m.ref(i)
		if v.Len() != ref.Len() {
			t.Fatalf("%s: view %d at height %d: Len %d, reference %d", what, i, m.height[i], v.Len(), ref.Len())
		}
		reads := make([]Read, 0, len(universe))
		for _, k := range universe {
			val, ver, ok := v.Get(k)
			wv, wver, wok := ref.Get(k)
			if ok != wok || !bytes.Equal(val, wv) || ver != wver {
				t.Fatalf("%s: view %d at height %d: Get(%q) = %q, %v, %t; reference %q, %v, %t",
					what, i, m.height[i], k, val, ver, ok, wv, wver, wok)
			}
			reads = append(reads, Read{Key: k, Ver: ver, Existed: ok})
		}
		ids := v.ids.Resolve(len(reads), func(j int) string { return reads[j].Key })
		if !v.ValidateResolved(reads, ids) {
			t.Fatalf("%s: view %d fails validation by id of its own reads", what, i)
		}
		for j, rd := range reads {
			flipped := []Read{{Key: rd.Key, Ver: rd.Ver, Existed: !rd.Existed}}
			if v.ValidateResolved(flipped, KeyIDs{table: ids.table, ids: ids.ids[j : j+1]}) {
				t.Fatalf("%s: view %d passes the stale read %+v by id", what, i, flipped[0])
			}
		}
		if !v.Equal(ref) || !ref.Equal(v) || v.Digest() != ref.Digest() {
			t.Fatalf("%s: view %d at height %d differs from its reference (Equal %t/%t)", what, i, m.height[i], v.Equal(ref), ref.Equal(v))
		}
	}
	for i, a := range m.views {
		for j, b := range m.views {
			if got, want := a.Equal(b), m.ref(i).Equal(m.ref(j)); got != want {
				t.Fatalf("%s: view %d Equal view %d = %t; references %t", what, i, j, got, want)
			}
		}
	}
	if m.partial != nil {
		if m.sh.writer != m.views[m.writing] {
			t.Fatalf("%s: the shared state names another writer", what)
		}
		return
	}
	// Undo records for exactly the blocks above the slowest sharing view.
	sharing, low := 0, ^uint64(0)
	for i, v := range m.views {
		if v.Sharing() {
			sharing++
			low = min(low, m.height[i])
			if m.sh.h-m.height[i] > sharedModelLag {
				t.Fatalf("%s: view %d trails the head by %d blocks, bound %d", what, i, m.sh.h-m.height[i], sharedModelLag)
			}
		}
	}
	if sharing == 0 {
		if m.sh.head != nil || m.sh.blocks != nil {
			t.Fatalf("%s: no view shares, yet the shared state keeps its head or %d undo records", what, len(m.sh.blocks))
		}
		return
	}
	if m.sh.writer != nil || m.sh.low != low || uint64(len(m.sh.blocks)) != m.sh.h-low {
		t.Fatalf("%s: undo records for blocks %d..%d (open %t); the slowest sharing view is at %d, the head at %d",
			what, m.sh.low, m.sh.low+uint64(len(m.sh.blocks)), m.sh.writer != nil, low, m.sh.h)
	}
	for k, b := range m.sh.blocks {
		if want := m.snaps[low+uint64(k)].Len(); b.size != want {
			t.Fatalf("%s: block %d's undo record says %d live keys before it, the reference %d", what, low+uint64(k), b.size, want)
		}
	}
}

// runSharedModel drives one model run: each byte of data picks a view to
// advance, or makes view 1 leave, or view 0 stop following; seed draws the
// blocks.
func runSharedModel(t *testing.T, seed int64, data []byte) (left, evicted bool) {
	keys := dense.NewTable[string]()
	base := funcBase(10)
	m := &sharedModel{t: t, sh: NewShared(keys), rng: rand.New(rand.NewSource(seed))}
	m.sh.maxLag = sharedModelLag
	for i := range m.views {
		m.views[i] = m.sh.View()
		m.views[i].SetBase(base)
	}
	start := NewStateOn(keys)
	start.SetBase(base)
	m.snaps = []*State{start}
	m.check("start")
	for step, op := range data {
		var what string
		switch {
		case op < 8 && !m.left && m.views[1].Sharing():
			m.views[1].Leave()
			m.left = true
			what = "view 1 leaves"
		case op < 14 && !m.frozen:
			m.frozen = true
			what = "view 0 stops following"
		default:
			i := int(op) % 4
			if i == 0 && m.frozen && m.views[0].Sharing() {
				i = 3
			}
			what = m.step(i)
		}
		m.check(fmt.Sprintf("step %d: %s", step, what))
	}
	return m.left, m.frozen && !m.views[0].Sharing()
}

// FuzzSharedState runs the model on drawn bytes; the seeds run in plain
// `go test`.
func FuzzSharedState(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 4; n++ {
		b := make([]byte, 128)
		rng.Read(b)
		f.Add(int64(n), b)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) > 128 {
			data = data[:128] // a longer run adds blocks, not cases: TestSharedStateModel runs those
		}
		runSharedModel(t, seed, data)
	})
}

// TestSharedStateModel runs seeded draws in which view 1 leaves and view 0
// stops following early, so every run covers both ways out.
func TestSharedStateModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 900)
		rng.Read(data)
		for i := range data {
			if data[i] < 14 {
				data[i] += 14 // no leaving but as placed below
			}
		}
		data[2+rng.Intn(8)] = 0    // view 1 leaves
		data[20+rng.Intn(20)] = 13 // view 0 stops following
		left, evicted := runSharedModel(t, seed, data)
		if !left || !evicted {
			t.Fatalf("seed %d: view 1 left %t, view 0 made to leave %t; want both", seed, left, evicted)
		}
	}
}

// A view written to directly leaves with the write its own; a view that
// missed SetBase leaves at the first block, reading as the empty state it is.
func TestSharedViewLeavesOnDirectWrite(t *testing.T) {
	keys := dense.NewTable[string]()
	sh := NewShared(keys)
	a, b, c, nobase := sh.View(), sh.View(), sh.View(), sh.View()
	base := funcBase(4)
	for _, v := range []*State{a, b, c} {
		v.SetBase(base)
	}
	b.Put("x", []byte("own"), Version{Block: 9})
	if b.Sharing() || !a.Sharing() {
		t.Fatalf("after a direct Put: b shares %t, a shares %t", b.Sharing(), a.Sharing())
	}
	if _, _, ok := a.Get("x"); ok {
		t.Fatal("a reads b's direct write")
	}
	a.Begin()
	a.Apply([]Write{{Key: "k1", Delete: true}, {Key: "y", Val: []byte("y0")}}, Version{Block: 0})
	a.Advance()
	if nobase.Sharing() || nobase.Len() != 0 {
		t.Fatalf("the view without a base shares %t and holds %d keys", nobase.Sharing(), nobase.Len())
	}
	if _, _, ok := c.Get("y"); ok || c.Len() != 4 {
		t.Fatal("c reads block 0 before committing it")
	}
	c.Advance()
	if !c.Equal(a) || c.Len() != 4 || b.Len() != 5 {
		t.Fatalf("c at block 1 holds %d keys, a %d; b %d", c.Len(), a.Len(), b.Len())
	}
}
