package core

import (
	"math/bits"
	"slices"

	"github.com/bidl-framework/bidl/internal/dense"
	"github.com/bidl-framework/bidl/internal/types"
)

// persistStream is a cluster's one PERSIST tally over its multicast PERSIST
// stream (DESIGN.md §7.1): the k-th step is the k-th multicast PersistMsg a
// normal node processed, and the first node to process it votes its entries
// into the stream's tallies and records which echoes crossed 2f+1 there. A
// node follows the stream while the multicasts it processed are the stream's
// prefix: it only adopts the recorded echoes, through its own committed and
// result filters. It leaves for good at the first message off the stream (a
// PersistFetchReq reply, a copy lost or dropped by a crash, another arrival
// order) or when a sequence number it commits has votes for another content
// or hash, or trails too far, and goes on from a private tally rebuilt as the
// stream stood at its position. Steps are kept from the slowest follower on,
// each marking the entries that added no vote, so the rebuild is exact.
type persistStream struct {
	quorum, committee int
	probe             *PersistProbe

	steps   *dense.Log[streamStep, *NormalNode]
	tallies map[uint64]*tallyPage // by seq>>pageBits
	spare   []*tallyPage
	// done has a step per block: the sequence numbers followers committed in
	// it. Once every follower committed past a block its hashes are settled (a
	// bit by ordinal in hashes) and their tallies dropped. An echo of a
	// settled hash is one every follower skips: the stream does not tally it
	// either.
	done    *dense.Log[[]doneSeq, *NormalNode]
	hashes  *dense.Table[types.TxID]
	settled []uint64
}

// maxStreamLag is how many steps the slowest follower may trail the stream
// before it is made to leave (a node down for long receives nothing).
const maxStreamLag = 1 << 15

// streamStep is one processed multicast: crossed and stale have a bit per
// entry, set for those whose vote crossed 2f+1 and those that added no vote (a
// repeat, a settled hash's echo).
type streamStep struct {
	msg            *PersistMsg
	crossed, stale []uint64
}

// tallyPage holds the stream's tallies of pageSize consecutive sequence
// numbers: live has a bit per tally in use, queued per tally listed in done,
// born is the step that made each tally.
type tallyPage struct {
	key, live, queued uint64
	born              [pageSize]uint64
	ps                [pageSize]persistStatus
}

// doneSeq is a sequence number a follower committed, as hash, whose ordinal
// is ord.
type doneSeq struct {
	seq  uint64
	hash types.TxID
	ord  uint32
}

// streamCursor is one normal node's place in the stream: the next step it
// expects, its commit height, and, once the stream made it leave (evicted),
// the tallies to go on from.
type streamCursor struct {
	pos, height dense.Cursor
	evicted     bool
	state       []seqTally
}

// seqTally is a sequence number's tally as a rebuild hands it over.
type seqTally struct {
	seq uint64
	ps  persistStatus
}

func newPersistStream(quorum, committee int, hashes *dense.Table[types.TxID], probe *PersistProbe) *persistStream {
	s := &persistStream{quorum: quorum, committee: committee, hashes: hashes, probe: probe, tallies: make(map[uint64]*tallyPage)}
	// A follower that trails too far takes its own copy of the tallies as they
	// stood at its position when it next reaches the stream.
	s.steps = dense.NewLog(maxStreamLag, func(st *streamStep) { st.msg = nil }, func(n *NormalNode) {
		n.cur.evicted, n.cur.state = true, s.stateAt(n.cur.pos.Pos(), nil)
		s.drop(n)
	})
	s.done = dense.NewLog[[]doneSeq, *NormalNode](^uint64(0), s.settle, nil)
	return s
}

// step processes m as node n's next multicast: n adopts the echoes that
// crossed 2f+1 at that step and passes its own filters, and step reports
// whether any did. following is false when n left the stream: its private
// tallies then stand where the stream stood at n's position.
func (s *persistStream) step(n *NormalNode, m *PersistMsg) (progressed, following bool) {
	cur := &n.cur
	if cur.evicted {
		n.install(cur.state, nil)
		cur.state = nil
		return false, false
	}
	switch pos := cur.pos.Pos(); {
	case pos == s.steps.Head() && m.stream:
		s.append(m)
	case !m.stream || s.steps.At(pos).msg != m:
		s.leave(n, nil)
		return false, false
	}
	var visits uint64
	for w, word := range s.steps.At(cur.pos.Pos()).crossed {
		for ; word != 0; word &= word - 1 {
			e := m.Entries[w*64+bits.TrailingZeros64(word)]
			if ps := n.tally(e); ps != nil {
				n.adopt(ps, e, m.Node)
				progressed = true
			}
			visits++
		}
	}
	if s.probe != nil {
		s.probe.visits.Add(visits)
	}
	s.steps.Advance(&cur.pos)
	return progressed, true
}

// append votes m's entries into the stream's tallies as the next step.
func (s *persistStream) append(m *PersistMsg) {
	if s.probe != nil {
		s.probe.visits.Add(uint64(len(m.Entries)))
	}
	at := s.steps.Head()
	st, words := s.steps.Append(), (len(m.Entries)+63)/64
	st.msg, st.crossed, st.stale = m, slices.Grow(st.crossed[:0], words)[:words], slices.Grow(st.stale[:0], words)[:words]
	clear(st.crossed)
	clear(st.stale)
	for i, e := range m.Entries {
		if ord, ok := e.ord.Lookup(s.hashes, 0, e.TxID); ok && int(ord/64) < len(s.settled) && s.settled[ord/64]&(1<<(ord%64)) != 0 {
			st.stale[i/64] |= 1 << (i % 64)
			continue
		}
		pg, j := s.page(e.Seq, true)
		if pg.live&(1<<j) == 0 {
			pg.live |= 1 << j
			pg.born[j] = at
		}
		if k, fresh := pg.ps[j].vote(e, m.Node, s.committee); !fresh {
			st.stale[i/64] |= 1 << (i % 64)
		} else if k == s.quorum {
			st.crossed[i/64] |= 1 << (i % 64)
		}
	}
}

// committed records that node n committed pb, clearing the tallies of the
// sequence numbers at the block positions whose bits cleared sets. Each must
// have had votes for the committed hash alone, else n leaves the stream: its
// private tally of a committed sequence number restarts empty, the stream's
// does not. It reports whether n still follows.
func (s *persistStream) committed(n *NormalNode, pb *pendingBlock, cleared []uint64) bool {
	cur := &n.cur
	if cur.evicted {
		n.install(cur.state, clearedSeqs(pb, cleared))
		cur.state = nil
		return false
	}
	if cur.height.Pos() == s.done.Head() {
		s.done.Append()
	}
	done := s.done.At(cur.height.Pos())
	for w, word := range cleared {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			pg, j := s.page(pb.seqs[i], false)
			if pg == nil || pg.live&(1<<j) == 0 {
				continue
			}
			if !pg.ps[j].only(pb.hashes[i]) {
				s.leave(n, clearedSeqs(pb, cleared))
				return false
			}
			if pg.queued&(1<<j) == 0 {
				pg.queued |= 1 << j
				ord, _ := pb.msg.ords.Lookup(s.hashes, i, pb.hashes[i])
				*done = append(*done, doneSeq{seq: pb.seqs[i], hash: pb.hashes[i], ord: ord})
			}
		}
	}
	s.done.Advance(&cur.height)
	return true
}

// clearedSeqs is the set of pb's sequence numbers at the positions cleared
// marks.
func clearedSeqs(pb *pendingBlock, cleared []uint64) map[uint64]bool {
	seqs := make(map[uint64]bool)
	for w, word := range cleared {
		for ; word != 0; word &= word - 1 {
			seqs[pb.seqs[w*64+bits.TrailingZeros64(word)]] = true
		}
	}
	return seqs
}

// settle marks the hashes of block d, which every follower committed past,
// settled and drops their tallies that still hold votes for the committed
// hash alone: a later vote for such a number starts from nothing, as in a
// node's own tally after it committed the number.
func (s *persistStream) settle(d *[]doneSeq) {
	for _, x := range *d {
		for int(x.ord/64) >= len(s.settled) {
			s.settled = append(s.settled, 0)
		}
		s.settled[x.ord/64] |= 1 << (x.ord % 64)
		pg, j := s.page(x.seq, false)
		if pg == nil || pg.queued&(1<<j) == 0 {
			continue
		}
		pg.queued &^= 1 << j
		if pg.ps[j].only(x.hash) {
			pg.ps[j], pg.live = persistStatus{}, pg.live&^(1<<j)
			if pg.live == 0 {
				delete(s.tallies, pg.key)
				s.spare = append(s.spare, pg)
			}
		}
	}
	*d = (*d)[:0]
}

// leave takes n out of the stream and rebuilds its private tallies as the
// stream stood at its position, but for the sequence numbers in skip.
func (s *persistStream) leave(n *NormalNode, skip map[uint64]bool) {
	n.install(s.stateAt(n.cur.pos.Pos(), func(seq uint64, ps *persistStatus) bool { return n.keeps(seq, ps, skip) }), skip)
	s.steps.Leave(&n.cur.pos)
	s.drop(n)
}

// drop takes n off the blocks it committed. With no follower left the stream
// keeps nothing: nodes join only when the cluster is built, so none reads it
// again.
func (s *persistStream) drop(n *NormalNode) {
	if s.done.Leave(&n.cur.height); len(s.done.Followers()) == 0 {
		s.tallies, s.spare, s.settled = nil, nil, nil
	}
}

// stateAt returns the tallies keep (nil: all) takes now as they stood before
// step pos: less the votes steps pos on added. A tally born at or after pos
// was empty then; one born earlier has taken every vote its number got since
// pos (a dropped tally's votes all precede its successor's birth).
func (s *persistStream) stateAt(pos uint64, keep func(uint64, *persistStatus) bool) []seqTally {
	var out []seqTally
	at := make(map[uint64]int)
	for _, pg := range s.tallies {
		for m := pg.live; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if seq := pg.key<<pageBits | uint64(j); pg.born[j] < pos && (keep == nil || keep(seq, &pg.ps[j])) {
				at[seq] = len(out)
				out = append(out, seqTally{seq: seq, ps: pg.ps[j].clone()})
			}
		}
	}
	for p := pos; p < s.steps.Head(); p++ {
		st := s.steps.At(p)
		for j, e := range st.msg.Entries {
			if st.stale[j/64]&(1<<(j%64)) != 0 {
				continue
			}
			if k, ok := at[e.Seq]; ok {
				out[k].ps.unvote(e, st.msg.Node)
			}
		}
	}
	return out
}

// page returns the tally page seq falls in and seq's index there; create adds
// a missing page, else it is nil.
func (s *persistStream) page(seq uint64, create bool) (*tallyPage, uint) {
	key, j := seq>>pageBits, uint(seq&pageMask)
	pg := s.tallies[key]
	if pg == nil && create {
		if k := len(s.spare); k > 0 {
			pg, s.spare = s.spare[k-1], s.spare[:k-1]
		} else {
			pg = new(tallyPage)
		}
		pg.key, s.tallies[key] = key, pg
	}
	return pg, j
}
