package ism

import (
	"sync/atomic"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// The merge point behind the sharded ingest. Each shard lane sequences
// its own sources (per-shard trace.Sequencer) and emits program-ordered
// sub-streams into a bounded SPSC ring; the merger goroutine below
// performs a k-way streaming merge over the lane heads — a 4-ary
// min-heap keyed by each head's global ingest tick — and feeds the
// merged stream through one trace.CausalMerger for cross-source
// send/recv matching and Lamport stamping before dispatch. This is the
// DeWiz shape: independent ordered sub-streams merged on a logical
// frontier, replacing the procMu global lock of the previous design.
//
// Liveness ("frontier-stall rule"): the minimum-tick head may only be
// dispatched once every other headless lane is provably unable to
// still emit a smaller tick — either it has settled every batch pushed
// to it, or its sequencing frontier has passed the candidate tick.
// A lane the merger stalls on always has outstanding batches, so it
// makes progress and eventually satisfies one of the two conditions;
// a lane blocked on a full ring has a head in the heap by definition
// and is therefore never stalled on.

// mergeSlot is one element of a shard's ordered sub-stream: the
// records one input batch released from the lane's sequencer, keyed by
// that batch's global ingest tick and carrying its arrival timestamp
// for the dispatch-latency metric.
type mergeSlot struct {
	tick    uint64
	arrival int64
	recs    []trace.Record
	pooled  bool
}

// merger is the dedicated merge/dispatch goroutine's state. All fields
// except merged are owned by that goroutine.
type merger struct {
	m *ISM

	heads []mergeSlot // current head slot per lane
	has   []bool
	heap  []int32 // lane ids, 4-ary min-heap by heads[id].tick

	cm       *trace.CausalMerger // nil unless Ordered without DeferCausal
	orderBuf []trace.Record      // reusable dispatch buffer
	lastHeld int                 // last held count folded into the gauge

	// uplinkSeq restamps dispatched records with fresh per-source
	// uplink sequence numbers under Config.DeferCausal: the leaf's
	// contribution to the cross-manager contract (contiguous per-source
	// sequences for the relay's lane sequencers).
	uplinkSeq map[trace.SourceKey]uint64

	stalledOn int  // lane blocking the last step, -1 if none
	retry     bool // a slot landed mid-step; re-step instead of parking

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	// merged counts records consumed from the rings and emitted; the
	// Drain watermark.
	merged atomic.Uint64

	slots   *metrics.Counter
	stalls  *metrics.Counter
	stallNs *metrics.Counter
}

func newMerger(m *ISM) *merger {
	g := &merger{
		m:         m,
		heads:     make([]mergeSlot, len(m.shards)),
		has:       make([]bool, len(m.shards)),
		heap:      make([]int32, 0, len(m.shards)),
		stalledOn: -1,
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if m.cfg.Ordered {
		if m.cfg.DeferCausal {
			g.uplinkSeq = make(map[trace.SourceKey]uint64)
		} else {
			g.cm = trace.NewCausalMerger()
		}
	}
	s := m.ctr.reg.Scope("ism").Scope("merge")
	g.slots = s.Counter("slots")
	g.stalls = s.Counter("stalls")
	g.stallNs = s.Counter("stall_ns")
	return g
}

// signal wakes the merger; safe from any goroutine, never blocks.
func (g *merger) signal() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// run is the merger goroutine: step until out of safe work, park on
// the wake signal, and on stop drain whatever the (already exited)
// lanes left behind.
func (g *merger) run() {
	defer close(g.done)
	for {
		if g.step() {
			continue
		}
		var t0 int64
		if g.stalledOn >= 0 {
			// Heads are waiting but the frontier rule blocks them:
			// that wait is merge stall, the price of ordering across
			// lanes, and is metered separately from plain idleness.
			g.stalls.Inc()
			t0 = g.m.clock.Now()
			s := g.m.shards[g.stalledOn]
			s.lagGauge.Set(int64(g.m.tick.Load() - s.frontier.Load()))
		}
		select {
		case <-g.wake:
			g.noteStallEnd(t0)
		case <-g.stop:
			g.noteStallEnd(t0)
			g.final()
			return
		}
	}
}

func (g *merger) noteStallEnd(t0 int64) {
	if g.stalledOn < 0 {
		return
	}
	if d := g.m.clock.Now() - t0; d > 0 {
		g.stallNs.Add(uint64(d))
	}
}

// refill pops one slot into the head position of every headless lane
// and returns a ring slot to any producer blocked on a full ring.
func (g *merger) refill() {
	for i, s := range g.m.shards {
		if g.has[i] {
			continue
		}
		if slot, ok := s.ring.TryPop(); ok {
			g.heads[i] = slot
			g.has[i] = true
			g.heapPush(int32(i))
			s.signalSpace()
			s.ringGauge.Set(int64(s.ring.Len()))
		}
	}
}

// step dispatches at most one slot and reports whether it made
// progress. No progress with stalledOn >= 0 means a frontier stall;
// with stalledOn < 0 it means the rings are simply empty.
func (g *merger) step() bool {
	g.stalledOn = -1
	g.refill()
	if len(g.heap) == 0 {
		return false
	}
	lane := int(g.heap[0])
	k := g.heads[lane].tick
	if len(g.m.shards) > 1 && !g.frontierClear(lane, k) {
		if g.retry {
			g.retry = false
			return true // a new head appeared mid-check; re-step
		}
		return false
	}
	g.heapPop()
	slot := g.heads[lane]
	g.heads[lane] = mergeSlot{}
	g.has[lane] = false
	g.dispatch(slot)
	return true
}

// frontierClear reports whether dispatching tick k from lane is safe:
// every other headless lane either has no batch outstanding (all
// pushed batches settled — any future tick postdates k, because ticks
// are drawn after the pushed count is raised) or has sequenced past k
// already (its frontier watermark is monotone, and with tick-sorted
// lane streams everything still queued is newer than the frontier).
func (g *merger) frontierClear(lane int, k uint64) bool {
	for i, s := range g.m.shards {
		if i == lane || g.has[i] {
			continue
		}
		// The lane's progress must be read BEFORE its ring length. A
		// lane pushes a batch's slot to the ring first and then sets
		// done, raises its frontier or settles the batch, so each of
		// those reads, once true, guarantees the length check below
		// sees the slot. Reading the ring first opens a window where a
		// slot with a tick below k lands and settles between the two
		// reads, and the settled count passes for a promise about an
		// empty ring.
		done := s.done.Load()
		// pushed must be read BEFORE settled: a batch counted after the
		// read drew its tick after k existed, so its tick exceeds k and
		// cannot invalidate the dispatch. Reading the pair the other way
		// around livelocks under a steady stream of instantly-settling
		// batches (e.g. drops on a closing stage): settled would forever
		// trail the in-flight push between the two loads.
		p := s.pushedBatches.Load()
		settled := s.settledBatches.Load() >= p
		past := s.frontier.Load() >= k
		if s.ring.Len() > 0 {
			// A slot landed after refill; it may carry a tick below k,
			// so pick it up before deciding.
			g.retry = true
			return false
		}
		// A done lane has exited with an empty ring: nothing it ever
		// sequenced remains, and late pushes are drops on the closed
		// stage whose ticks postdate k. Without this exit the shutdown
		// race livelocks: injectors hammering a closing ISM keep an
		// in-flight push outstanding at every settled-count read, the
		// frontier never clears, and a sibling lane parked on a full
		// ring is never refilled.
		if done || settled || past {
			continue
		}
		g.stalledOn = i
		return false
	}
	return true
}

// final drains the rings without the frontier rule: the lanes have
// exited, so ring contents are complete and per-lane FIFO suffices.
func (g *merger) final() {
	for {
		g.refill()
		if len(g.heap) == 0 {
			return
		}
		lane := int(g.heapPop())
		slot := g.heads[lane]
		g.heads[lane] = mergeSlot{}
		g.has[lane] = false
		g.dispatch(slot)
	}
}

// dispatch runs one merged slot through causal merging (when ordered)
// and emission. All records in a slot share the arrival batch, so the
// latency observation and the batch-pool round trip stay per-slot.
func (g *merger) dispatch(slot mergeSlot) {
	m := g.m
	n := uint64(len(slot.recs))
	g.slots.Inc()
	if g.cm == nil {
		if g.uplinkSeq != nil {
			// Deferred causal mode: the record leaves this manager in
			// program order with a fresh per-source uplink sequence in
			// Logical — contiguous even when the inbound capture
			// sequence stream was not (dedup, resume adoption).
			for i := range slot.recs {
				key := trace.SourceKey{Node: slot.recs[i].Node, Process: slot.recs[i].Process}
				slot.recs[i].Logical = g.uplinkSeq[key]
				g.uplinkSeq[key]++
			}
		}
		m.ctr.latency.Observe(m.clock.Now() - slot.arrival)
		m.ctr.dispatched.Add(n)
		m.emitAll(slot.recs)
	} else {
		out := g.orderBuf[:0]
		ooo := g.cm.OutOfOrder()
		for rest := slot.recs; len(rest) > 0; {
			n := trace.RunLen(rest)
			out = g.cm.AddRun(out, rest[:n])
			rest = rest[n:]
		}
		if d := g.cm.OutOfOrder() - ooo; d > 0 {
			m.ctr.outOfOrder.Add(d)
		}
		if h := g.cm.Held(); h != g.lastHeld {
			m.ctr.held.Add(int64(h - g.lastHeld))
			g.lastHeld = h
			m.ctr.maxHeld.SetMax(m.ctr.held.Value())
		}
		if len(out) > 0 {
			// Latency is attributed to the arriving batch that caused
			// dispatch; held records' latency is folded in when
			// released.
			m.ctr.latency.Observe(m.clock.Now() - slot.arrival)
			m.ctr.dispatched.Add(uint64(len(out)))
			m.emitAll(out)
		}
		g.orderBuf = out[:0]
	}
	if slot.pooled {
		flow.PutBatch(slot.recs)
	}
	g.merged.Add(n)
}

// 4-ary min-heap over lane ids keyed by head tick. Shard counts are
// small, so the shallow fan-out keeps the whole heap within a cache
// line or two (the PR-3 storage-heap idiom).

func (g *merger) heapLess(a, b int32) bool {
	return g.heads[a].tick < g.heads[b].tick
}

func (g *merger) heapPush(lane int32) {
	g.heap = append(g.heap, lane)
	i := len(g.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !g.heapLess(g.heap[i], g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

func (g *merger) heapPop() int32 {
	top := g.heap[0]
	last := len(g.heap) - 1
	g.heap[0] = g.heap[last]
	g.heap = g.heap[:last]
	i := 0
	for {
		min := i
		for c := 4*i + 1; c <= 4*i+4 && c < len(g.heap); c++ {
			if g.heapLess(g.heap[c], g.heap[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		g.heap[i], g.heap[min] = g.heap[min], g.heap[i]
		i = min
	}
	return top
}
