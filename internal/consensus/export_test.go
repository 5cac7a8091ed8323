package consensus

// newTally is the vote tally FuzzVotes drives against a map by member.
func newTally(n int) *Votes {
	v := NewVotes(n)
	return &v
}

// CollectedViews returns the views c holds view-change messages for.
func (c *Core[I]) CollectedViews() []uint64 { return SortedSeqs(c.vcs) }

// WithWire returns m as a protocol with overhead w would send it.
func (m ViewMsg) WithWire(w Wire) *ViewMsg {
	m.wire = w
	return &m
}

// WithWire gives m the overhead w of a protocol that sends it.
func (m *PhaseMsg) WithWire(w Wire) *PhaseMsg {
	m.wire = w.Msg
	return m
}
