package consensus

// CollectedViews returns the views c holds view-change messages for.
func (c *Core[I]) CollectedViews() []uint64 { return SortedSeqs(c.vcs) }

// WithWire returns m as a protocol with overhead w would send it.
func (m ViewMsg) WithWire(w Wire) *ViewMsg {
	m.wire = w
	return &m
}
