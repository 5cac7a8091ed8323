package ledger

// Overlay is a speculative view layered over committed State. BIDL normal
// nodes execute Phase 4 against an overlay: sequential speculative writes
// land here, later transactions in the same block read through it, and on a
// consensus mismatch the whole overlay is discarded and the block
// re-executed (Phase 5 fallback, §4.3).
type Overlay struct {
	base *State
	data map[string]entry
	dels map[string]struct{}
}

// NewOverlay creates an empty overlay over base.
func NewOverlay(base *State) *Overlay {
	return &Overlay{
		base: base,
		data: make(map[string]entry),
		dels: make(map[string]struct{}),
	}
}

// Get reads through the overlay: speculative writes win over base state.
func (o *Overlay) Get(key string) (val []byte, ver Version, ok bool) {
	if _, deleted := o.dels[key]; deleted {
		return nil, Version{}, false
	}
	if e, ok := o.data[key]; ok {
		return e.val, e.ver(), true
	}
	return o.base.Get(key)
}

// Put stages a speculative write.
func (o *Overlay) Put(key string, val []byte, ver Version) {
	delete(o.dels, key)
	o.data[key] = entry{val: val, v: packed(ver, value)}
}

// Delete stages a speculative deletion.
func (o *Overlay) Delete(key string) {
	delete(o.data, key)
	o.dels[key] = struct{}{}
}

// Pending reports the number of staged writes and deletions.
func (o *Overlay) Pending() int { return len(o.data) + len(o.dels) }

// Discard drops all speculative changes (fallback to sequential workflow).
// The maps are cleared in place, not reallocated: an overlay is discarded or
// committed once per block, and reusing the buckets keeps the per-block cost
// flat. Safe because neither map's iteration order is observable (Commit
// flushes distinct keys into a map, which commutes).
func (o *Overlay) Discard() {
	clear(o.data)
	clear(o.dels)
}

// Commit flushes all speculative changes into the base state and resets the
// overlay.
func (o *Overlay) Commit() {
	for k, e := range o.data {
		o.base.Put(k, e.val, e.ver())
	}
	for k := range o.dels {
		o.base.Delete(k)
	}
	o.Discard()
}
