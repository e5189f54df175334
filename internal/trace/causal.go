package trace

import (
	"fmt"
)

// Causal ordering. "To avoid problems due to the lack of a global
// clock, we use the technique of assigning logical time-stamps, as
// implemented by VIZIR. If an arriving event is in correct causal
// order, it is assigned a logical time-stamp and stored in an output
// buffer ... If the arriving event is not in causal order, it is added
// in one (or multiple) input buffer(s) to reconstruct the causal order
// of the data before dispatch to a tool." (§3.3)
//
// The implementation is split into two independently usable stages so
// a sharded ISM can run the first stage per ingest shard and the
// second once at the merge point:
//
//   - Sequencer repairs program order within each source from the
//     per-source capture sequence numbers. It needs no cross-source
//     state, so one Sequencer per shard is sound as long as each
//     source's records all land on the same shard (the ISM's
//     source-affinity hash guarantees this).
//   - CausalMerger matches receives to sends across sources and
//     assigns Lamport logical timestamps. It is inherently global and
//     runs single-threaded at the merge point. Its input must be
//     program-ordered per source; it never reorders within a source.
//
// Orderer composes the two for callers that want the original
// single-stage behavior.

// SourceKey identifies an event source (node, process).
type SourceKey struct {
	Node, Process int32
}

// seqRecord is a Record plus the per-source sequence number assigned
// at capture time; the LIS stamps Tag-independent sequence numbers
// into Payload for kinds that do not use it, but to stay general the
// Sequencer takes the sequence explicitly.
type seqRecord struct {
	rec Record
	seq uint64
}

type msgKey struct {
	from, to int32
	tag      uint16
}

// Sequencer reconstructs per-source program order from out-of-order
// arrivals. Records released by AddTo are in capture-sequence order
// within each source; duplicates (sequence below the source's cursor)
// are dropped. The Sequencer does not look at record kinds and does
// not assign logical timestamps — that is the CausalMerger's job.
type Sequencer struct {
	resume     bool
	nextSeq    map[SourceKey]uint64
	held       map[SourceKey][]seqRecord // out-of-order input buffers
	heldCount  int
	maxHeld    int
	sequenced  uint64
	outOfOrder uint64
}

// NewSequencer returns an empty Sequencer.
func NewSequencer() *Sequencer {
	return &Sequencer{
		nextSeq: map[SourceKey]uint64{},
		held:    map[SourceKey][]seqRecord{},
	}
}

// Held returns the number of records currently held back waiting for a
// program-order predecessor.
func (s *Sequencer) Held() int { return s.heldCount }

// MaxHeld returns the maximum number of simultaneously held records.
func (s *Sequencer) MaxHeld() int { return s.maxHeld }

// Sequenced returns the total number of records released in program
// order.
func (s *Sequencer) Sequenced() uint64 { return s.sequenced }

// OutOfOrder returns the total number of records not released on
// arrival: held back for a program-order predecessor or dropped as
// duplicates.
func (s *Sequencer) OutOfOrder() uint64 { return s.outOfOrder }

// Resume makes the sequencer adopt an unseen source's first capture
// sequence as that source's starting point instead of holding it back
// waiting for sequence zero. A manager that (re)starts against sources
// already mid-stream — a crashed ISM re-served by resilient LIS
// sessions replaying their unacked windows — would otherwise hold
// every event forever: the prefix went to the dead incarnation and
// will never be resent. Only sound when each source's events arrive in
// program order until its first dispatch (the session protocol's
// in-order replay guarantees this); a reordering transport could
// present sequence n before 0 for a brand-new source and lose the
// prefix to dedup. Sources already seen are unaffected.
func (s *Sequencer) Resume() { s.resume = true }

// SetNext seeds a source's program-order cursor: the next fresh record
// accepted from the source must carry exactly seq, and anything below
// it is dropped as a duplicate. It is the record-granular restore hook
// for a manager rebuilt from its own durable output — a relay that
// re-reads its spool knows exactly how many records of each source it
// already emitted, and seeding the cursor there makes a sender's
// at-least-once replay (which resends whole unacked batches, including
// the already-emitted prefix of a partially dispatched one) dedupe by
// sequence match instead of re-delivering. Call before the source's
// records arrive; it overrides any Resume adoption for the key.
func (s *Sequencer) SetNext(key SourceKey, seq uint64) {
	s.nextSeq[key] = seq
}

// AddTo offers a record with its per-source capture sequence number
// (0-based, contiguous per source) and appends every record that
// became releasable — the record itself plus any held successors it
// unblocks — to dst in program order.
func (s *Sequencer) AddTo(dst []Record, rec Record, seq uint64) []Record {
	key := SourceKey{rec.Node, rec.Process}
	if s.resume {
		if _, seen := s.nextSeq[key]; !seen {
			s.nextSeq[key] = seq
		}
	}
	want := s.nextSeq[key]
	if seq != want {
		s.outOfOrder++
		if seq < want {
			// Duplicate or replayed record; drop.
			return dst
		}
		s.held[key] = append(s.held[key], seqRecord{rec: rec, seq: seq})
		s.heldCount++
		if s.heldCount > s.maxHeld {
			s.maxHeld = s.heldCount
		}
		return dst
	}
	dst = append(dst, rec)
	s.sequenced++
	s.nextSeq[key] = seq + 1
	if s.heldCount == 0 {
		// Nothing is held anywhere, so nothing can be unblocked.
		return dst
	}
	// Drain held successors now contiguous with the cursor. Gaps are
	// rare and buffers small; the linear scan per release matches the
	// original Orderer.
	buf := s.held[key]
	for len(buf) > 0 {
		next := s.nextSeq[key]
		idx := -1
		for i, h := range buf {
			if h.seq == next {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		h := buf[idx]
		buf = append(buf[:idx], buf[idx+1:]...)
		s.heldCount--
		dst = append(dst, h.rec)
		s.sequenced++
		s.nextSeq[key] = h.seq + 1
	}
	if len(buf) == 0 {
		delete(s.held, key)
	} else {
		s.held[key] = buf
	}
	return dst
}

// AddRun offers a run — consecutive records of one source, each
// carrying its capture sequence in Logical — and appends every record
// that became releasable to dst. It is exactly AddTo(dst, r, r.Logical)
// for each record of the run in order, released records keeping their
// sequence in Logical. The common case is paid once per run instead of
// once per record: when nothing of the source is held, the prefix that
// continues the source's cursor contiguously is appended whole with one
// cursor read and one cursor write. The rest of the run (a gap, a
// duplicate, a source with held records) takes the per-record path.
func (s *Sequencer) AddRun(dst []Record, run []Record) []Record {
	if len(run) == 0 {
		return dst
	}
	key := SourceKey{run[0].Node, run[0].Process}
	if s.heldCount > 0 && s.held[key] != nil {
		return s.addEach(dst, run)
	}
	want, seen := s.nextSeq[key]
	if !seen && s.resume {
		want = run[0].Logical
	}
	n := 0
	for n < len(run) && run[n].Logical == want+uint64(n) {
		n++
	}
	if n == 0 {
		return s.addEach(dst, run)
	}
	dst = append(dst, run[:n]...)
	s.sequenced += uint64(n)
	s.nextSeq[key] = want + uint64(n)
	return s.addEach(dst, run[n:])
}

func (s *Sequencer) addEach(dst []Record, recs []Record) []Record {
	for _, r := range recs {
		dst = s.AddTo(dst, r, r.Logical)
	}
	return dst
}

// RunLen returns the length of the run at the head of recs: the
// maximal prefix of records sharing recs[0]'s source. It returns 0 for
// an empty slice.
func RunLen(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	node, proc := recs[0].Node, recs[0].Process
	n := 1
	for n < len(recs) && recs[n].Node == node && recs[n].Process == proc {
		n++
	}
	return n
}

// CausalMerger enforces the cross-source happens-before edges (a
// KindRecv happens-after its matching KindSend, matched by Tag with
// Payload holding the peer node) and assigns Lamport logical
// timestamps. Input must already be in program order per source;
// within that constraint sources may interleave arbitrarily, which is
// exactly what the ISM's k-way shard merge produces.
//
// When a receive arrives before its send, the receive is parked and
// its whole source stalls: later records from that source queue behind
// it (program order must survive the wait). The matching send releases
// the receive and drains the queue, recursively unblocking any chains.
// Release order is deterministic — it depends only on the input
// sequence, never on map iteration order — which is what makes
// sharded-vs-single-orderer runs byte-comparable.
type CausalMerger struct {
	clock      uint64
	sendSeen   map[msgKey]int      // multiset of unmatched dispatched sends; no zero counts
	recvsHeld  map[msgKey][]Record // receives waiting for sends
	pending    map[SourceKey]*pendQueue
	stalled    map[SourceKey]bool
	heldCount  int
	maxHeld    int
	dispatched uint64
	outOfOrder uint64
}

// pendQueue is a head-indexed FIFO of program-order successors parked
// behind a stalled receive; popping advances head instead of
// reslicing so drained queues recycle their backing arrays, and a
// queue whose dead prefix passes half its length is compacted, so a
// source that keeps re-stalling cannot grow the array without bound.
type pendQueue struct {
	buf  []Record
	head int
}

// NewCausalMerger returns an empty CausalMerger whose Lamport clock
// starts at 1.
func NewCausalMerger() *CausalMerger {
	return &CausalMerger{
		sendSeen:  map[msgKey]int{},
		recvsHeld: map[msgKey][]Record{},
		pending:   map[SourceKey]*pendQueue{},
		stalled:   map[SourceKey]bool{},
	}
}

// Held returns the number of records currently held back waiting for a
// message dependency (parked receives plus their queued successors).
func (m *CausalMerger) Held() int { return m.heldCount }

// MaxHeld returns the maximum number of simultaneously held records.
func (m *CausalMerger) MaxHeld() int { return m.maxHeld }

// Dispatched returns the total number of records released in causal
// order.
func (m *CausalMerger) Dispatched() uint64 { return m.dispatched }

// Clock returns the current Lamport clock value — the logical
// timestamp of the most recently dispatched record.
func (m *CausalMerger) Clock() uint64 { return m.clock }

// OutOfOrder returns the total number of records not dispatched on
// arrival: receives parked for their send and the records queued
// behind them.
func (m *CausalMerger) OutOfOrder() uint64 { return m.outOfOrder }

func (m *CausalMerger) hold(n int) {
	m.heldCount += n
	if m.heldCount > m.maxHeld {
		m.maxHeld = m.heldCount
	}
}

// matchSend consumes one dispatched send from the multiset, deleting
// the key when its count reaches zero (per-pair tags would otherwise
// leave one dead key per message ever matched). It reports false when
// no such send has been dispatched.
func (m *CausalMerger) matchSend(mk msgKey) bool {
	n := m.sendSeen[mk]
	switch {
	case n == 0:
		return false
	case n == 1:
		delete(m.sendSeen, mk)
	default:
		m.sendSeen[mk] = n - 1
	}
	return true
}

// Observe replays one already-dispatched record back into the merger's
// bookkeeping without re-emitting it: the Lamport clock adopts the
// record's stamp, and send/recv matching state is rebuilt exactly as
// the original dispatch left it (a send deposits a match, a receive
// consumes one). Feeding a previously emitted trace through Observe in
// order therefore reconstructs the merger a crash destroyed — the
// restart hook a relay uses to resume from its spooled root trace with
// Lamport continuity and without double-matching receives against
// sends that were consumed before the crash.
func (m *CausalMerger) Observe(rec Record) {
	if rec.Logical > m.clock {
		m.clock = rec.Logical
	}
	m.dispatched++
	switch rec.Kind {
	case KindSend:
		m.sendSeen[msgKey{from: rec.Node, to: int32(rec.Payload), tag: rec.Tag}]++
	case KindRecv:
		mk := msgKey{from: int32(rec.Payload), to: rec.Node, tag: rec.Tag}
		// A causally valid trace never emits a receive before its send,
		// so a miss only happens for hand-built inputs.
		m.matchSend(mk)
	}
}

// AddTo offers the next record of its source's program-ordered stream
// and appends every record that became dispatchable — stamped with
// Lamport timestamps, in causal order — to dst.
func (m *CausalMerger) AddTo(dst []Record, rec Record) []Record {
	key := SourceKey{rec.Node, rec.Process}
	if m.stalled[key] {
		// A receive from this source is parked; program order forces
		// everything behind it to wait too.
		m.queue(key, []Record{rec})
		return dst
	}
	dst, parked := m.offer(dst, rec, key)
	if parked {
		m.outOfOrder++
	}
	return dst
}

// AddRun offers a run — consecutive records of one source, in program
// order — and appends every record that became dispatchable to dst. It
// is exactly AddTo for each record of the run in order, but looks up
// the source's stall state once per run and stamps records that carry
// no message edge inline. Sends and receives still go through the
// matching path; when a receive parks, the rest of the run queues
// behind it.
func (m *CausalMerger) AddRun(dst []Record, run []Record) []Record {
	if len(run) == 0 {
		return dst
	}
	key := SourceKey{run[0].Node, run[0].Process}
	if m.stalled[key] {
		m.queue(key, run)
		return dst
	}
	for len(run) > 0 {
		// Stamp the stretch up to the next message record in place.
		n := 0
		for n < len(run) && run[n].Kind != KindSend && run[n].Kind != KindRecv {
			n++
		}
		base := len(dst)
		dst = append(dst, run[:n]...)
		for i := base; i < len(dst); i++ {
			m.clock++
			dst[i].Logical = m.clock
		}
		m.dispatched += uint64(n)
		if n == len(run) {
			break
		}
		// Only this source's own receive can stall it: a release inside
		// offer unblocks and drains other sources only.
		var parked bool
		if dst, parked = m.offer(dst, run[n], key); parked {
			m.outOfOrder++
			m.queue(key, run[n+1:])
			break
		}
		run = run[n+1:]
	}
	return dst
}

// queue parks program-order successors behind key's stalled receive.
func (m *CausalMerger) queue(key SourceKey, recs []Record) {
	if len(recs) == 0 {
		return
	}
	q := m.pending[key]
	if q == nil {
		q = &pendQueue{}
		m.pending[key] = q
	}
	q.buf = append(q.buf, recs...)
	m.outOfOrder += uint64(len(recs))
	m.hold(len(recs))
}

// offer dispatches rec from an unstalled source, or parks it when it is
// a receive whose send has not been dispatched; parked reports the
// latter (the source is stalled from then on).
func (m *CausalMerger) offer(dst []Record, rec Record, key SourceKey) (_ []Record, parked bool) {
	if rec.Kind == KindRecv {
		mk := msgKey{from: int32(rec.Payload), to: rec.Node, tag: rec.Tag}
		if !m.matchSend(mk) {
			m.recvsHeld[mk] = append(m.recvsHeld[mk], rec)
			m.stalled[key] = true
			m.hold(1)
			return dst, true
		}
	}
	return m.release(dst, rec), false
}

func (m *CausalMerger) release(dst []Record, rec Record) []Record {
	m.clock++
	rec.Logical = m.clock
	dst = append(dst, rec)
	m.dispatched++
	if rec.Kind == KindSend {
		mk := msgKey{from: rec.Node, to: int32(rec.Payload), tag: rec.Tag}
		waiting := m.recvsHeld[mk]
		if len(waiting) == 0 {
			m.sendSeen[mk]++
		} else {
			// Unblock the oldest receive waiting on this send (the send
			// is matched at once, so it never enters sendSeen), then
			// drain the successors queued behind it.
			r := waiting[0]
			if len(waiting) == 1 {
				delete(m.recvsHeld, mk)
			} else {
				m.recvsHeld[mk] = waiting[1:]
			}
			m.heldCount--
			dst = m.release(dst, r)
			rk := SourceKey{r.Node, r.Process}
			delete(m.stalled, rk)
			dst = m.drainPending(dst, rk)
		}
	}
	return dst
}

func (m *CausalMerger) drainPending(dst []Record, key SourceKey) []Record {
	q := m.pending[key]
	if q == nil {
		return dst
	}
	for q.head < len(q.buf) {
		rec := q.buf[q.head]
		q.buf[q.head] = Record{}
		q.head++
		m.heldCount--
		// May re-park (another receive with a missing send): the drain
		// stops and the remainder stays queued.
		var parked bool
		if dst, parked = m.offer(dst, rec, key); parked {
			break
		}
	}
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > len(q.buf)/2:
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return dst
}

// Orderer reconstructs causal order from out-of-order event arrivals
// and assigns Lamport logical timestamps. It is the single-stage
// composition of a Sequencer and a CausalMerger.
//
// Causality model:
//   - events from the same source are ordered by their capture
//     sequence numbers (program order);
//   - a KindRecv event additionally happens-after the matching
//     KindSend (matched by Tag: send and recv carry the same message
//     tag, with Payload holding the peer node).
//
// An event is dispatchable when its program-order predecessor has been
// dispatched and, for receives, the matching send has been dispatched.
type Orderer struct {
	seq    *Sequencer
	merge  *CausalMerger
	seqBuf []Record // reused program-order staging buffer
}

// NewOrderer returns an empty Orderer whose Lamport clock starts at 1.
func NewOrderer() *Orderer {
	return &Orderer{seq: NewSequencer(), merge: NewCausalMerger()}
}

// Held returns the number of events currently held back out of order —
// the instantaneous input-buffer length of §3.3's "average buffer
// length" metric — across both stages.
func (o *Orderer) Held() int { return o.seq.Held() + o.merge.Held() }

// MaxHeld returns an upper bound on the maximum number of
// simultaneously held events (the per-stage maxima can peak at
// different times).
func (o *Orderer) MaxHeld() int { return o.seq.MaxHeld() + o.merge.MaxHeld() }

// Dispatched returns the total number of events released in causal
// order.
func (o *Orderer) Dispatched() uint64 { return o.merge.Dispatched() }

// Resume makes the orderer adopt an unseen source's first capture
// sequence as that source's starting point; see Sequencer.Resume.
func (o *Orderer) Resume() { o.seq.Resume() }

// Add offers an event with its per-source capture sequence number
// (0-based, contiguous per source). It returns the events that became
// dispatchable, in causal order, each stamped with a Lamport logical
// timestamp.
func (o *Orderer) Add(rec Record, seq uint64) []Record {
	return o.AddTo(nil, rec, seq)
}

// AddTo is Add appending into a caller-provided buffer, so a processor
// offering a whole batch can reuse one dispatch slice across records
// instead of allocating per Add.
func (o *Orderer) AddTo(dst []Record, rec Record, seq uint64) []Record {
	o.seqBuf = o.seq.AddTo(o.seqBuf[:0], rec, seq)
	for _, r := range o.seqBuf {
		dst = o.merge.AddTo(dst, r)
	}
	return dst
}

// CheckCausal verifies that a dispatched stream is causally
// consistent: logical timestamps strictly increase, per-source
// sequence respects program order, and no receive precedes its send.
func CheckCausal(rs []Record) error {
	var lastLogical uint64
	sends := map[msgKey]int{}
	for i, r := range rs {
		if r.Logical <= lastLogical {
			return fmt.Errorf("trace: record %d logical %d not increasing", i, r.Logical)
		}
		lastLogical = r.Logical
		switch r.Kind {
		case KindSend:
			sends[msgKey{from: r.Node, to: int32(r.Payload), tag: r.Tag}]++
		case KindRecv:
			mk := msgKey{from: int32(r.Payload), to: r.Node, tag: r.Tag}
			if sends[mk] == 0 {
				return fmt.Errorf("trace: record %d receive before matching send", i)
			}
			sends[mk]--
		}
	}
	return nil
}
