package core

import (
	"math/bits"
	"sync"

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
// each with the entries that added no vote, so the rebuild is exact; the lock
// makes the stream safe for concurrent followers.
type persistStream struct {
	mu                sync.Mutex
	quorum, committee int
	maxLag            uint64 // maxStreamLag, smaller in tests
	probe             *PersistProbe

	// steps[i] is step base+i; crossed and stale hold every kept step's
	// crossing echoes and indices of entries that added no vote (a repeat, a
	// settled hash's echo), from the crossBase-th and staleBase-th recorded.
	steps                ring[streamStep]
	base                 uint64
	crossed              ring[*PersistEntry]
	stale                ring[int32]
	crossBase, staleBase uint64

	tallies map[uint64]*tallyPage // by seq>>pageBits
	spare   []*tallyPage
	// done lists the sequence numbers followers committed, by block number:
	// once every follower committed past its block the hash is settled (a bit
	// by its ordinal in hashes) and the tally dropped. An echo of a settled
	// hash is one every follower skips: the stream does not tally it either.
	done    ring[doneSeq]
	hashes  *dense.Table[types.TxID]
	settled []uint64

	followers         []*streamCursor
	minPos, minHeight uint64 // the slowest follower's position and commit height
	atPos, atHeight   int    // how many followers are there
}

// maxStreamLag is how many steps the slowest follower may trail the stream
// before it is made to leave (a node down for long receives nothing).
const maxStreamLag = 1 << 15

// streamStep is one processed multicast and where its records end.
type streamStep struct {
	msg                *PersistMsg
	crossEnd, staleEnd uint64
}

// tallyPage holds the stream's tallies of pageSize consecutive sequence
// numbers: live has a bit per tally in use, queued per tally listed in done,
// born is the step that made each tally.
type tallyPage struct {
	key, live, queued uint64
	born              [pageSize]uint64
	ps                [pageSize]persistStatus
}

// doneSeq is a sequence number a follower committed in block, as hash, whose
// ordinal is ord.
type doneSeq struct {
	block, seq uint64
	hash       types.TxID
	ord        uint32
}

// streamCursor is one normal node's place in the stream, guarded by the
// stream's lock: the next step it expects, its commit height, and, once the
// stream made it leave (evicted), the tallies to go on from.
type streamCursor struct {
	pos, height uint64
	evicted     bool
	state       []seqTally
}

// seqTally is a sequence number's tally as a rebuild hands it over.
type seqTally struct {
	seq uint64
	ps  persistStatus
}

func newPersistStream(quorum, committee, nodes int, hashes *dense.Table[types.TxID], probe *PersistProbe) *persistStream {
	return &persistStream{quorum: quorum, committee: committee, maxLag: maxStreamLag, hashes: hashes, probe: probe,
		tallies: make(map[uint64]*tallyPage), followers: make([]*streamCursor, 0, nodes)}
}

// join adds cur as a follower at the stream's start.
func (s *persistStream) join(cur *streamCursor) {
	s.followers = append(s.followers, cur)
	s.atPos++
	s.atHeight++
}

// step processes m as node n's next multicast: n adopts the echoes that
// crossed 2f+1 at that step and passes its own filters, and step reports
// whether any did. following is false when n left the stream: its private
// tallies then stand where the stream stood at n's position.
func (s *persistStream) step(n *NormalNode, m *PersistMsg) (progressed, following bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := &n.cur
	if cur.evicted {
		n.install(cur.state, nil)
		cur.state = nil
		return false, false
	}
	head := s.base + uint64(s.steps.len())
	switch {
	case cur.pos == head && m.stream:
		s.append(m)
	case !m.stream || s.steps.at(int(cur.pos-s.base)).msg != m:
		s.leave(n, cur, nil)
		return false, false
	}
	i := int(cur.pos - s.base)
	from := s.crossBase
	if i > 0 {
		from = s.steps.at(i - 1).crossEnd
	}
	for k := from; k < s.steps.at(i).crossEnd; k++ {
		e := *s.crossed.at(int(k - s.crossBase))
		if ps := n.tally(e); ps != nil {
			n.adopt(ps, e, m.Node)
			progressed = true
		}
	}
	if s.probe != nil {
		s.probe.visits.Add(s.steps.at(i).crossEnd - from)
	}
	s.advance(cur)
	if head := s.base + uint64(s.steps.len()); head-s.minPos > s.maxLag {
		s.evictSlowest()
	}
	return progressed, true
}

// append votes m's entries into the stream's tallies as the next step.
func (s *persistStream) append(m *PersistMsg) {
	if s.probe != nil {
		s.probe.visits.Add(uint64(len(m.Entries)))
	}
	at := s.base + uint64(s.steps.len())
	st := streamStep{msg: m, crossEnd: s.crossBase + uint64(s.crossed.len()), staleEnd: s.staleBase + uint64(s.stale.len())}
	for i, e := range m.Entries {
		if ord, ok := e.ord.Lookup(s.hashes, 0, e.TxID); ok && int(ord/64) < len(s.settled) && s.settled[ord/64]&(1<<(ord%64)) != 0 {
			s.stale.push(int32(i))
			st.staleEnd++
			continue
		}
		pg, j := s.page(e.Seq, true)
		if pg.live&(1<<j) == 0 {
			pg.live |= 1 << j
			pg.born[j] = at
		}
		if k, fresh := pg.ps[j].vote(e, m.Node, s.committee); !fresh {
			s.stale.push(int32(i))
			st.staleEnd++
		} else if k == s.quorum {
			s.crossed.push(e)
			st.crossEnd++
		}
	}
	s.steps.push(st)
}

// advance moves cur past its step, trimming the steps nobody needs any more.
func (s *persistStream) advance(cur *streamCursor) {
	cur.pos++
	if cur.pos-1 == s.minPos {
		if s.atPos--; s.atPos == 0 {
			s.rescanPos()
		}
	}
}

// rescanPos finds the slowest follower's position and drops the steps before
// it. With no follower left the stream keeps nothing, not even its buffers:
// nodes join only when the cluster is built, so none reads it again.
func (s *persistStream) rescanPos() {
	head := s.base + uint64(s.steps.len())
	s.minPos, s.atPos = head, 0
	if len(s.followers) == 0 {
		s.steps, s.crossed, s.stale, s.done = ring[streamStep]{}, ring[*PersistEntry]{}, ring[int32]{}, ring[doneSeq]{}
		s.tallies, s.spare, s.settled = nil, nil, nil
		s.base = head
		return
	}
	for _, f := range s.followers {
		if f.pos < s.minPos {
			s.minPos, s.atPos = f.pos, 0
		}
		if f.pos == s.minPos {
			s.atPos++
		}
	}
	k := int(s.minPos - s.base)
	if k == 0 {
		return
	}
	last := s.steps.at(k - 1)
	s.crossed.drop(int(last.crossEnd - s.crossBase))
	s.stale.drop(int(last.staleEnd - s.staleBase))
	s.crossBase, s.staleBase = last.crossEnd, last.staleEnd
	s.steps.drop(k)
	s.base = s.minPos
}

// committed records that node n committed pb, clearing the tallies of the
// sequence numbers at the block positions whose bits cleared sets. Each must
// have had votes for the committed hash alone, else n leaves the stream: its
// private tally of a committed sequence number restarts empty, the stream's
// does not. It reports whether n still follows.
func (s *persistStream) committed(n *NormalNode, pb *pendingBlock, cleared []uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := &n.cur
	if cur.evicted {
		n.install(cur.state, clearedSeqs(pb, cleared))
		cur.state = nil
		return false
	}
	for w, word := range cleared {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			pg, j := s.page(pb.seqs[i], false)
			if pg == nil || pg.live&(1<<j) == 0 {
				continue
			}
			if !pg.ps[j].only(pb.hashes[i]) {
				s.leave(n, cur, clearedSeqs(pb, cleared))
				return false
			}
			if pg.queued&(1<<j) == 0 {
				pg.queued |= 1 << j
				ord, _ := pb.msg.ords.Lookup(s.hashes, i, pb.hashes[i])
				s.done.push(doneSeq{block: pb.msg.Number, seq: pb.seqs[i], hash: pb.hashes[i], ord: ord})
			}
		}
	}
	cur.height = pb.msg.Number + 1
	if cur.height-1 == s.minHeight {
		if s.atHeight--; s.atHeight == 0 {
			s.rescanHeight()
		}
	}
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

// rescanHeight finds the slowest follower's commit height and drops the
// tallies of sequence numbers every follower committed that still hold votes
// for the committed hash alone: a later vote for such a number starts from
// nothing, as in a node's own tally after it committed the number.
func (s *persistStream) rescanHeight() {
	s.minHeight, s.atHeight = ^uint64(0), 0
	for _, f := range s.followers {
		if f.height < s.minHeight {
			s.minHeight, s.atHeight = f.height, 0
		}
		if f.height == s.minHeight {
			s.atHeight++
		}
	}
	for s.done.len() > 0 && s.done.at(0).block < s.minHeight {
		d := *s.done.at(0)
		s.done.drop(1)
		for int(d.ord/64) >= len(s.settled) {
			s.settled = append(s.settled, 0)
		}
		s.settled[d.ord/64] |= 1 << (d.ord % 64)
		pg, j := s.page(d.seq, false)
		if pg == nil || pg.queued&(1<<j) == 0 {
			continue
		}
		pg.queued &^= 1 << j
		if pg.ps[j].only(d.hash) {
			pg.ps[j], pg.live = persistStatus{}, pg.live&^(1<<j)
			if pg.live == 0 {
				delete(s.tallies, pg.key)
				s.spare = append(s.spare, pg)
			}
		}
	}
}

// leave takes cur out of the stream and rebuilds n's private tallies as the
// stream stood at cur's position, but for the sequence numbers in skip.
func (s *persistStream) leave(n *NormalNode, cur *streamCursor, skip map[uint64]bool) {
	n.install(s.stateAt(cur.pos, func(seq uint64, ps *persistStatus) bool { return n.keeps(seq, ps, skip) }), skip)
	s.remove(cur)
}

// evictSlowest makes the followers at the slowest position leave: each takes
// its own copy of the tallies as they stood there when it next reaches the
// stream.
func (s *persistStream) evictSlowest() {
	for _, f := range s.followers {
		if f.pos == s.minPos {
			f.evicted, f.state = true, s.stateAt(s.minPos, nil)
		}
	}
	for i := len(s.followers) - 1; i >= 0; i-- {
		if f := s.followers[i]; f.evicted {
			s.remove(f)
		}
	}
}

// remove drops cur from the followers.
func (s *persistStream) remove(cur *streamCursor) {
	for i, f := range s.followers {
		if f == cur {
			s.followers = append(s.followers[:i], s.followers[i+1:]...)
			break
		}
	}
	s.rescanPos()
	s.rescanHeight()
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
	staleAt := s.staleBase
	if i := int(pos - s.base); i > 0 {
		staleAt = s.steps.at(i - 1).staleEnd
	}
	for i := int(pos - s.base); i < s.steps.len(); i++ {
		st := s.steps.at(i)
		for j, e := range st.msg.Entries {
			if staleAt < st.staleEnd && int(*s.stale.at(int(staleAt - s.staleBase))) == j {
				staleAt++
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

// ring is a FIFO over one slice that reuses its backing once the dropped
// front is at least half of it.
type ring[T any] struct {
	buf  []T
	head int
}

func (r *ring[T]) len() int    { return len(r.buf) - r.head }
func (r *ring[T]) at(i int) *T { return &r.buf[r.head+i] }
func (r *ring[T]) push(v T) {
	if len(r.buf) == cap(r.buf) && r.head >= len(r.buf)/2 && r.head > 0 {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf, r.head = r.buf[:n], 0
	}
	r.buf = append(r.buf, v)
}

// drop removes the first k elements.
func (r *ring[T]) drop(k int) {
	clear(r.buf[r.head : r.head+k])
	r.head += k
	if r.head == len(r.buf) {
		r.buf, r.head = r.buf[:0], 0
	}
}
