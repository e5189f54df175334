package relay

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Config parameterizes a Relay.
type Config struct {
	// Root marks this relay as the top of the tree: the merged stream
	// runs through a trace.CausalMerger matching sends to receives
	// across managers and assigning Lamport stamps. A non-root relay
	// forwards the merged stream with the per-source uplink sequences
	// in Logical untouched, preserving the downstream contract for the
	// next tier's lane sequencers.
	Root bool
	// Downstreams, when positive, is the expected downstream count.
	// The merger holds dispatch until that many lanes have attached: a
	// downstream that has not connected yet is a silent lane with no
	// watermark at all, and dispatching around it would break the
	// global Time order the moment it appears. Zero trusts whoever is
	// connected — correct only when downstreams attach before data
	// flows.
	Downstreams int
	// LaneRing bounds each downstream lane's SPSC hand-off ring to the
	// merger, in batch slots. A full ring backpressures the lane's
	// serve goroutine, which backpressures the session sender. Zero
	// means a generous default.
	LaneRing int
	// MaxStall bounds how long the merger waits for a silent lane's
	// watermark before force-dispatching the minimum head out of order
	// (counted in Stats.OrderBreaks). Zero means wait forever — strict
	// ordering, at the mercy of the slowest downstream's marks.
	MaxStall time.Duration
	// AckEvery is the receipt-ack cadence handed to the session
	// receiver; the dispatch-gated acks advance independently of it.
	AckEvery int
	// FlushBatch bounds the dispatch buffer in records before it is
	// flushed to the spool and subscribers. Zero means 512.
	FlushBatch int
	// Resume seeds a restarted relay from its own durable output: the
	// records the previous incarnation emitted (its spool, re-read).
	// Emission counts, causal-merge state and per-source dedup cursors
	// are rebuilt from it, so downstream at-least-once replays dedupe
	// record-granularly instead of re-emitting.
	Resume []trace.Record
	// Spool, when non-nil, receives every emitted record in the binary
	// trace format — at the root, the federation's single causally
	// ordered trace.
	Spool io.Writer
	// SpoolContinue marks Spool as the continuation of an existing
	// trace stream (a restarted relay appending to the spool it resumed
	// from): the stream header is suppressed, because the file's
	// original header already covers the appended records.
	SpoolContinue bool
	// Metrics, when non-nil, is the registry the relay reports through
	// (under the "ism.relay" scope). Nil gets a private registry.
	Metrics *metrics.Registry
	// Clock supplies arrival timestamps for degradation tracking. Nil
	// means a real clock.
	Clock event.Clock
}

// Stats is a snapshot of relay activity.
type Stats struct {
	Lanes            int    // downstream lanes created
	Dispatched       uint64 // records emitted from the merge
	Resumes          uint64 // hello-frontier adoptions (downstream resumed us)
	Stalls           uint64 // merger waits imposed by the watermark rule
	OrderBreaks      uint64 // records force-dispatched past a stalled lane
	DupRecords       uint64 // record-granular replays absorbed by lane sequencers
	PartitionRejects uint64 // records refused for arriving via a second lane
	Marks            uint64 // watermark records consumed
	Held             int    // records parked in the cross-manager causal merge
	SessionDups      uint64 // batch-granular replays absorbed by the session layer
}

// laneSlot is one ordered sub-batch handed from a lane to the merger.
type laneSlot struct {
	recs   []trace.Record
	pooled bool
}

// heldBatch is a session batch delivered above a contiguity hole,
// parked until the hole closes.
type heldBatch struct {
	recs   []trace.Record
	pooled bool
}

// sourceNeed is one source's contribution to a batch's ack condition:
// the batch may be acknowledged once the relay has emitted past seq
// (the highest uplink sequence the batch carried for the source).
type sourceNeed struct {
	key trace.SourceKey
	seq uint64
}

// ackEntry gates one session batch's acknowledgement on dispatch: the
// entry is satisfied once every need is emitted. Entries form a FIFO
// per lane (session sequences are admitted contiguously), so the
// satisfied prefix is exactly the cumulative ack frontier.
type ackEntry struct {
	seq   int64
	needs []sourceNeed
}

// lane is one downstream manager's ingest path: contiguous session
// admission, record-granular dedup, a bounded hand-off ring to the
// merger, and the dispatch-gated ack queue.
type lane struct {
	node int32
	idx  int // position in the relay's lane snapshot

	// admitMu serializes admission. The SPSC ring's single-producer
	// contract must survive a reconnect moving the downstream to a new
	// serve goroutine; the mutex is uncontended in steady state (one
	// live connection per downstream).
	admitMu   sync.Mutex
	nextBatch int64 // highest contiguously admitted session seq
	held      map[int64]heldBatch
	seq       *trace.Sequencer
	// claims caches this lane's ownership verdicts: ownership never
	// changes once decided, so the relay-wide owner table (and its
	// mutex) is consulted once per new source, not once per record.
	claims  map[trace.SourceKey]bool
	scratch map[trace.SourceKey]uint64 // per-batch ack-need accumulator

	ring  *flow.SPSC[laneSlot]
	space chan struct{}

	// watermark is the lane's Time frontier: the downstream promises
	// every future record carries at least this capture Time. Advanced
	// by admitted data (after it is in the ring) and by mark records.
	watermark atomic.Int64

	connMu sync.Mutex
	conn   tp.Conn

	ackMu    sync.Mutex
	ackSent  int64 // highest dispatch-gated ack advertised
	pendAcks []ackEntry

	admittedRecs atomic.Uint64
	consumedRecs atomic.Uint64

	ringGauge *metrics.Gauge
	wmGauge   *metrics.Gauge
	lagGauge  *metrics.Gauge
}

// signalSpace tells a lane blocked on a full ring that the merger
// freed a slot.
func (ln *lane) signalSpace() {
	select {
	case ln.space <- struct{}{}:
	default:
	}
}

// raiseWatermark advances the lane's Time frontier monotonically.
func (ln *lane) raiseWatermark(w int64) {
	for {
		cur := ln.watermark.Load()
		if w <= cur || ln.watermark.CompareAndSwap(cur, w) {
			return
		}
	}
}

// laneHead is the merger's cursor into a lane's current slot.
type laneHead struct {
	recs   []trace.Record
	pos    int
	pooled bool
}

// sink mirrors the ISM subscriber shape: record- or batch-granular.
type sink struct {
	name  string
	fn    func(trace.Record)
	batch func([]trace.Record)
}

// Relay is a running relay ISM: it accepts downstream manager sessions
// (Serve), merges their ordered sub-streams into one causally ordered
// trace, and acknowledges each downstream batch only once every record
// in it has been emitted — so a downstream's empty replay window means
// its data is merged at the root, not merely received.
type Relay struct {
	cfg  Config
	recv *fault.Receiver

	lanesMu sync.Mutex
	lanes   atomic.Pointer[[]*lane]

	// owner enforces source-partitioned admission: a source enters the
	// federation through exactly one lane. restoreNext carries the
	// per-source dedup cursors rebuilt from Config.Resume, applied to a
	// lane's sequencer when it first claims the source.
	ownMu       sync.Mutex
	owner       map[trace.SourceKey]*lane
	restoreNext map[trace.SourceKey]uint64

	// Merger-goroutine state.
	heads   []laneHead
	has     []bool
	heap    []int32
	cm      *trace.CausalMerger // non-nil at the root
	emitted map[trace.SourceKey]uint64
	outBuf  []trace.Record
	stalled int
	retry   bool
	force   bool

	frontier atomic.Int64 // merge frontier: no future emission below this Time
	closing  atomic.Bool
	killed   atomic.Bool
	parks    atomic.Uint64
	wake     chan struct{}
	stop     chan struct{}
	runDone  chan struct{}

	reg        *metrics.Registry
	laneScope  metrics.Scope
	mLanes     *metrics.Gauge
	mDispatch  *metrics.Counter
	mResumes   *metrics.Counter
	mStalls    *metrics.Counter
	mBreaks    *metrics.Counter
	mDups      *metrics.Counter
	mRejects   *metrics.Counter
	mMarks     *metrics.Counter
	mHeld      *metrics.Gauge
	mUnseq     *metrics.Counter
	mAcksGated *metrics.Counter

	mu      sync.Mutex
	subs    []sink
	spool   *trace.Writer
	conns   []tp.Conn
	closed  bool
	serveWG sync.WaitGroup
}

// New creates and starts a relay. Resume records, if any, are absorbed
// before any downstream is served.
func New(cfg Config) *Relay {
	r := newRelay(cfg)
	go r.run()
	return r
}

// newRelay builds a relay without starting its merger goroutine.
func newRelay(cfg Config) *Relay {
	if cfg.LaneRing <= 0 {
		cfg.LaneRing = 256
	}
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = 512
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Relay{
		cfg:         cfg,
		owner:       make(map[trace.SourceKey]*lane),
		restoreNext: make(map[trace.SourceKey]uint64),
		emitted:     make(map[trace.SourceKey]uint64),
		stalled:     -1,
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		runDone:     make(chan struct{}),
		reg:         reg,
	}
	empty := make([]*lane, 0)
	r.lanes.Store(&empty)
	r.frontier.Store(math.MinInt64)
	s := reg.Scope("ism").Scope("relay")
	r.laneScope = s
	r.mLanes = s.Gauge("lanes")
	r.mDispatch = s.Counter("dispatched")
	r.mResumes = s.Counter("resumes")
	r.mStalls = s.Counter("stalls")
	r.mBreaks = s.Counter("order_breaks")
	r.mDups = s.Counter("dup_records")
	r.mRejects = s.Counter("partition_rejects")
	r.mMarks = s.Counter("marks")
	r.mHeld = s.Gauge("held")
	r.mUnseq = s.Counter("unsequenced_drops")
	r.mAcksGated = s.Counter("acks_gated")
	if cfg.Root {
		r.cm = trace.NewCausalMerger()
	}
	// Restore: replay the previous incarnation's emitted output through
	// the accounting (and, at the root, the causal-merge state) so
	// at-least-once replays from downstreams dedupe by sequence match.
	// The emitted counts double as the per-source restore cursors —
	// emission preserves per-source order, so "n records of key seen"
	// means exactly uplink sequences [0, n).
	for _, rec := range cfg.Resume {
		key := trace.SourceKey{Node: rec.Node, Process: rec.Process}
		r.restoreNext[key]++
		r.emitted[key]++
		if r.cm != nil {
			r.cm.Observe(rec)
		}
	}
	if cfg.Spool != nil {
		if cfg.SpoolContinue {
			r.spool = trace.NewAppendWriter(cfg.Spool)
		} else {
			r.spool = trace.NewWriter(cfg.Spool)
		}
	}
	r.recv = fault.NewReceiver(fault.ReceiverConfig{
		AckEvery:    cfg.AckEvery,
		Clock:       cfg.Clock,
		Metrics:     reg,
		AckFrontier: r.ackFrontier,
		OnHello:     r.onHello,
	})
	return r
}

// Metrics returns the registry the relay reports through.
func (r *Relay) Metrics() *metrics.Registry { return r.reg }

// Subscribe registers a record-granular sink for the merged root
// stream; fn runs on the merger goroutine in emission order.
func (r *Relay) Subscribe(name string, fn func(trace.Record)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, sink{name: name, fn: fn})
}

// SubscribeBatch registers a batch-granular sink: the slice is only
// valid for the duration of the call. An Uplink's Push makes a non-root
// relay's output the next tier's input: relay trees compose.
func (r *Relay) SubscribeBatch(name string, fn func([]trace.Record)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, sink{name: name, batch: fn})
}

// Serve reads messages from a downstream connection until EOF. The
// session layer (hello/ack/dedup) is interposed automatically.
func (r *Relay) Serve(conn tp.Conn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.conns = append(r.conns, conn)
	r.mu.Unlock()
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if r.recv.Filter(conn, m) {
				continue
			}
			r.inject(conn, m)
		}
	}()
}

// Degraded reports downstreams not heard from within the silence
// budget.
func (r *Relay) Degraded(silence time.Duration) []int32 {
	return r.recv.Degraded(silence)
}

// inject routes one post-filter message. Only sequenced data batches
// feed the merge; a relay's inputs are managers, which always speak
// the session protocol.
func (r *Relay) inject(conn tp.Conn, m tp.Message) {
	if m.Type != tp.MsgData {
		return
	}
	if m.Arg == 0 {
		r.mUnseq.Inc()
		tp.Recycle(&m)
		return
	}
	recs, pooled := m.Records, m.Pooled
	if !pooled {
		recs = flow.GetBatch(len(m.Records))[:len(m.Records)]
		copy(recs, m.Records)
		pooled = true
	}
	ln := r.laneFor(m.Node)
	ln.connMu.Lock()
	ln.conn = conn
	ln.connMu.Unlock()
	r.admit(ln, m.Arg, recs, pooled)
}

// lookupLane finds an existing lane without creating one.
func (r *Relay) lookupLane(node int32) *lane {
	for _, ln := range *r.lanes.Load() {
		if ln.node == node {
			return ln
		}
	}
	return nil
}

// laneFor returns (creating if needed) the downstream's lane. The lane
// snapshot is copy-on-append behind an atomic pointer so the merger
// iterates it without locks.
func (r *Relay) laneFor(node int32) *lane {
	if ln := r.lookupLane(node); ln != nil {
		return ln
	}
	r.lanesMu.Lock()
	defer r.lanesMu.Unlock()
	if ln := r.lookupLane(node); ln != nil {
		return ln
	}
	cur := *r.lanes.Load()
	ln := &lane{
		node:    node,
		idx:     len(cur),
		held:    make(map[int64]heldBatch),
		seq:     trace.NewSequencer(),
		claims:  make(map[trace.SourceKey]bool),
		scratch: make(map[trace.SourceKey]uint64),
		ring:    flow.NewSPSC[laneSlot](r.cfg.LaneRing),
		space:   make(chan struct{}, 1),
	}
	// A relay can (re)start against downstreams already mid-stream; the
	// restore cursors override adoption per source as they are claimed.
	ln.seq.Resume()
	ln.watermark.Store(math.MinInt64)
	ls := r.laneScope.Scope(fmt.Sprintf("lane%d", node))
	ln.ringGauge = ls.Gauge("ring_occupancy")
	ln.wmGauge = ls.Gauge("watermark")
	ln.lagGauge = ls.Gauge("lag_ticks")
	next := make([]*lane, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = ln
	r.lanes.Store(&next)
	r.mLanes.Set(int64(len(next)))
	return r.lookupLane(node) // return the published instance
}

// onHello adopts a reconnecting downstream's acked frontier: batches
// at or below it were claimed by a previous incarnation of this relay
// and will never be resent, so the lane's contiguity cursor and ack
// floor both start there.
func (r *Relay) onHello(node int32, acked int64) {
	ln := r.laneFor(node)
	ln.admitMu.Lock()
	if acked > ln.nextBatch {
		ln.nextBatch = acked
		for s, hb := range ln.held {
			if s <= acked {
				if hb.pooled {
					flow.PutBatch(hb.recs)
				}
				delete(ln.held, s)
			}
		}
		r.mResumes.Inc()
		// Batches held above the old floor may now continue the new
		// one. The session layer has already absorbed them and dedups
		// their replays, so nothing else would ever admit them.
		r.admitHeld(ln)
	}
	ln.admitMu.Unlock()
	ln.ackMu.Lock()
	if acked > ln.ackSent {
		ln.ackSent = acked
	}
	ln.ackMu.Unlock()
}

// ackFrontier supplies the dispatch-gated ack value the session layer
// rides back to a downstream in place of the receipt frontier.
func (r *Relay) ackFrontier(node int32) int64 {
	ln := r.lookupLane(node)
	if ln == nil {
		return 0
	}
	ln.ackMu.Lock()
	defer ln.ackMu.Unlock()
	return ln.ackSent
}

// admit applies contiguous session ordering to one delivered batch.
// The fault.Receiver delivers above-hole batches immediately (its job
// is dedup, not ordering); the lane parks them until the hole closes
// so the per-lane stream stays in uplink order — the merge's per-lane
// FIFO contract.
func (r *Relay) admit(ln *lane, seq int64, recs []trace.Record, pooled bool) {
	ln.admitMu.Lock()
	if seq <= ln.nextBatch {
		// Below the admission floor: a replay that raced the receiver's
		// own dedup window (fresh receiver after restart).
		ln.admitMu.Unlock()
		if pooled {
			flow.PutBatch(recs)
		}
		return
	}
	if seq != ln.nextBatch+1 {
		ln.held[seq] = heldBatch{recs: recs, pooled: pooled}
		ln.admitMu.Unlock()
		return
	}
	r.process(ln, seq, recs, pooled)
	ln.nextBatch = seq
	r.admitHeld(ln)
	ln.admitMu.Unlock()
}

// admitHeld processes the held batches that continue the admission
// floor, in sequence order. Runs with ln.admitMu held.
func (r *Relay) admitHeld(ln *lane) {
	for {
		hb, ok := ln.held[ln.nextBatch+1]
		if !ok {
			return
		}
		delete(ln.held, ln.nextBatch+1)
		ln.nextBatch++
		r.process(ln, ln.nextBatch, hb.recs, hb.pooled)
	}
}

// process runs one contiguously admitted batch: watermark application
// for marks; ownership check, record-granular dedup, ring hand-off and
// ack gating for data. Data is admitted a run at a time (a run is a
// maximal stretch of one source's records): one ownership check, one
// sequencer call and one ack-need map update per run. Runs with
// ln.admitMu held.
func (r *Relay) process(ln *lane, seq int64, recs []trace.Record, pooled bool) {
	if isMarkBatch(recs) {
		w := recs[0].Time
		ln.ackMu.Lock()
		ln.pendAcks = append(ln.pendAcks, ackEntry{seq: seq})
		ln.ackMu.Unlock()
		if pooled {
			flow.PutBatch(recs)
		}
		ln.raiseWatermark(w)
		ln.wmGauge.Set(ln.watermark.Load())
		r.mMarks.Inc()
		r.signal()
		return
	}
	clear(ln.scratch)
	out := flow.GetBatch(len(recs))
	held0 := ln.seq.Held()
	maxT := int64(math.MinInt64)
	rejects := 0
	for rest := recs; len(rest) > 0; {
		run := rest[:trace.RunLen(rest)]
		rest = rest[len(run):]
		key := trace.SourceKey{Node: run[0].Node, Process: run[0].Process}
		if !r.claim(key, ln) {
			rejects += len(run)
			continue
		}
		maxSeq := run[0].Logical
		for i := range run {
			maxT = max(maxT, run[i].Time)
			maxSeq = max(maxSeq, run[i].Logical)
		}
		if s, ok := ln.scratch[key]; !ok || maxSeq > s {
			ln.scratch[key] = maxSeq
		}
		out = ln.seq.AddRun(out, run)
	}
	if rejects > 0 {
		r.mRejects.Add(uint64(rejects))
	}
	// Accepted records either came out (len(out) may exceed the batch
	// when releases unblock held successors), went on hold (a gap the
	// dedup cursors open is impossible on an in-order lane, but a
	// buggy downstream is not), or were absorbed as sequence-matched
	// duplicates — the replayed prefix of a partially dispatched batch.
	heldDelta := ln.seq.Held() - held0
	if absorbed := len(recs) - rejects - len(out) - heldDelta; absorbed > 0 {
		r.mDups.Add(uint64(absorbed))
	}
	var needs []sourceNeed
	if len(ln.scratch) > 0 {
		needs = make([]sourceNeed, 0, len(ln.scratch))
		for k, s := range ln.scratch {
			needs = append(needs, sourceNeed{key: k, seq: s})
		}
	}
	ln.ackMu.Lock()
	ln.pendAcks = append(ln.pendAcks, ackEntry{seq: seq, needs: needs})
	ln.ackMu.Unlock()
	if pooled {
		flow.PutBatch(recs)
	}
	if len(out) > 0 {
		slot := laneSlot{recs: out, pooled: true}
		for !ln.ring.TryPush(slot) {
			<-ln.space
		}
		ln.admittedRecs.Add(uint64(len(out)))
		ln.ringGauge.Set(int64(ln.ring.Len()))
	} else {
		flow.PutBatch(out)
	}
	// The watermark must not advance until the records it covers are in
	// the ring: the merger's clear rule reads "ring empty, watermark
	// past t" as "this lane cannot contribute below t".
	if maxT != math.MinInt64 {
		ln.raiseWatermark(maxT)
		ln.wmGauge.Set(ln.watermark.Load())
	}
	r.signal()
}

// claim enforces source partitioning: a source's first lane owns it
// for the relay's lifetime, and the first claim installs the restore
// cursor rebuilt from Config.Resume into the owning lane's sequencer.
// Verdicts are cached per lane, so only a lane's first sight of a
// source takes the relay-wide lock.
func (r *Relay) claim(key trace.SourceKey, ln *lane) bool {
	if owned, ok := ln.claims[key]; ok {
		return owned
	}
	r.ownMu.Lock()
	owner, ok := r.owner[key]
	if !ok {
		owner = ln
		r.owner[key] = ln
		if n, ok := r.restoreNext[key]; ok {
			ln.seq.SetNext(key, n)
		}
	}
	r.ownMu.Unlock()
	ln.claims[key] = owner == ln
	return owner == ln
}

// signal wakes the merger; safe from any goroutine, never blocks.
func (r *Relay) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// run is the merger goroutine: a k-way merge over the lane rings on
// the (Time, Node, Process) total order, dispatched in same-source runs
// but gated record by record by the per-lane watermark rule, feeding
// the causal merger (root) or the pass-through dispatch (inner tier).
// Acknowledgements advance only here, after emission — the dispatch
// gate.
func (r *Relay) run() {
	defer close(r.runDone)
	for {
		if r.step() {
			continue
		}
		r.flushOut()
		r.updateFrontier()
		r.advanceAcks()
		r.parks.Add(1)
		stalled := r.stalled >= 0 && !r.closing.Load()
		if stalled {
			r.mStalls.Inc()
		}
		if stalled && r.cfg.MaxStall > 0 {
			t := time.NewTimer(r.cfg.MaxStall)
			select {
			case <-r.wake:
				t.Stop()
			case <-t.C:
				// The watermark rule has held the merge past its stall
				// budget; escape it for one record. step re-checks first —
				// if the stall cleared while we slept, no break happens.
				r.force = true
			case <-r.stop:
				t.Stop()
				r.finalDrain()
				return
			}
			continue
		}
		select {
		case <-r.wake:
		case <-r.stop:
			r.finalDrain()
			return
		}
	}
}

// grow extends the merger's per-lane state to cover a snapshot of n
// lanes (the snapshot is append-only).
func (r *Relay) grow(n int) {
	for len(r.heads) < n {
		r.heads = append(r.heads, laneHead{})
		r.has = append(r.has, false)
	}
}

// refill pops a slot into the head position of every headless lane.
func (r *Relay) refill(lanes []*lane) {
	for i, ln := range lanes {
		if r.has[i] {
			continue
		}
		if slot, ok := ln.ring.TryPop(); ok {
			r.heads[i] = laneHead{recs: slot.recs, pooled: slot.pooled}
			r.has[i] = true
			r.heapPush(int32(i))
			ln.signalSpace()
			ln.ringGauge.Set(int64(ln.ring.Len()))
		}
	}
}

// step dispatches at most one run of records and reports whether it
// made progress. No progress with stalled >= 0 is a watermark stall.
//
// The run starts with the minimum head and extends over the head
// lane's following records of the same source for as long as each one
// is exactly what a record-at-a-time merge would pick next: it sorts
// before every other lane's head and clears the watermark rule on its
// own Time. A forced record (a MaxStall break) is dispatched alone.
func (r *Relay) step() bool {
	r.stalled = -1
	lanes := *r.lanes.Load()
	r.grow(len(lanes))
	r.refill(lanes)
	if len(r.heap) == 0 {
		r.force = false
		return false
	}
	li := int(r.heap[0])
	h := &r.heads[li]
	first := &h.recs[h.pos]
	closing := r.closing.Load()
	forced := false
	if !closing && !r.clearFor(lanes, li, first.Time) {
		if r.retry {
			r.retry = false
			return true
		}
		if !r.force {
			return false
		}
		forced = true
		r.mBreaks.Inc()
	}
	r.force = false
	r.heapPop()
	start := h.pos
	h.pos++
	if !forced {
		// Keep the flush cadence of record-at-a-time dispatch: a run
		// never carries the buffer past FlushBatch.
		end := min(len(h.recs), start+max(1, r.cfg.FlushBatch-len(r.outBuf)))
		var limit *trace.Record // the next-best head
		if len(r.heap) > 0 {
			o := &r.heads[r.heap[0]]
			limit = &o.recs[o.pos]
		}
		for h.pos < end && r.extends(lanes, li, first, &h.recs[h.pos], limit, closing) {
			h.pos++
		}
	}
	if !r.killed.Load() {
		r.dispatch(h.recs[start:h.pos])
	}
	if h.pos == len(h.recs) {
		lanes[li].consumedRecs.Add(uint64(len(h.recs)))
		if h.pooled {
			flow.PutBatch(h.recs)
		}
		r.heads[li] = laneHead{}
		r.has[li] = false
	} else {
		r.heapPush(int32(li))
	}
	return true
}

// extends reports whether next, the record after the current run on
// lane li, may join the run that began with first: same source, sorts
// before limit (the next-best head, nil when there is none), and clear
// of every other lane's watermark. A failed watermark check is not a
// stall (the run so far still goes out), so it leaves no stall or retry
// state behind.
func (r *Relay) extends(lanes []*lane, li int, first, next, limit *trace.Record, closing bool) bool {
	if next.Node != first.Node || next.Process != first.Process {
		return false
	}
	if limit != nil && !next.Before(*limit) {
		return false
	}
	if closing || r.clearFor(lanes, li, next.Time) {
		return true
	}
	r.stalled, r.retry = -1, false
	return false
}

// clearFor reports whether dispatching a record with capture Time t
// from lane min is safe: every other headless lane either has ring
// backlog (pick it up first — it may sort below t) or a watermark at
// or past t (it has promised nothing older is coming). Equal Times
// across lanes are arbitrated by (Node, Process); the federation's
// determinism contract stamps distinct Times, so the >= is exact
// there and best-effort otherwise.
func (r *Relay) clearFor(lanes []*lane, min int, t int64) bool {
	if len(lanes) < r.cfg.Downstreams {
		// An expected downstream has never attached: a silent lane
		// whose watermark is unboundedly low. Hold everything (up to
		// MaxStall, which escapes this gate like any other stall).
		r.stalled = min
		return false
	}
	for i, ln := range lanes {
		if i == min || r.has[i] {
			continue
		}
		// The watermark must be loaded BEFORE the ring is inspected: the
		// lane pushes covered data first and raises the watermark second,
		// so reading the pair the other way around opens a window where a
		// batch lands between the two loads and its own watermark passes
		// for a promise about an empty ring — releasing another lane's
		// newer record past data already admitted here. With this order,
		// anything pushed after the watermark read carries a Time above
		// the value read (lane streams are Time-ordered), so a stale
		// watermark is only ever conservative. The ism frontier rule's
		// pushed-before-settled discipline, at the federation tier.
		w := ln.watermark.Load()
		if ln.ring.Len() > 0 {
			r.retry = true
			return false
		}
		if w >= t {
			continue
		}
		ln.lagGauge.Set(t - w)
		r.stalled = i
		return false
	}
	return true
}

// finalDrain empties the rings without the watermark rule (every
// serve goroutine has exited; ring contents are complete) and settles
// the last acks.
func (r *Relay) finalDrain() {
	for r.step() {
	}
	r.flushOut()
	r.updateFrontier()
	r.advanceAcks()
}

// dispatch runs one merged run of a single source through the root
// causal merge or the inner-tier pass-through, and counts emission per
// source — the currency the ack gate trades in — once per emitted run.
// At the root, a record parked by the causal merger (a receive whose
// send is still in flight on another lane) stays unemitted and
// therefore keeps its batch unacked; the downstream's replay window
// covers it across a relay crash.
func (r *Relay) dispatch(run []trace.Record) {
	prev := len(r.outBuf)
	if r.cm != nil {
		r.outBuf = r.cm.AddRun(r.outBuf, run)
		r.mHeld.Set(int64(r.cm.Held()))
	} else {
		r.outBuf = append(r.outBuf, run...)
	}
	// At the root the output may hold receives and queued successors
	// of other sources that this run released.
	for out := r.outBuf[prev:]; len(out) > 0; {
		n := trace.RunLen(out)
		r.emitted[trace.SourceKey{Node: out[0].Node, Process: out[0].Process}] += uint64(n)
		out = out[n:]
	}
	if len(r.outBuf) >= r.cfg.FlushBatch {
		r.flushOut()
	}
}

// flushOut hands the dispatch buffer to the spool and subscribers.
// Runs on the merger goroutine; always called before acks advance, so
// an acked record is visible in the durable output.
func (r *Relay) flushOut() {
	if len(r.outBuf) == 0 {
		return
	}
	r.mu.Lock()
	spool := r.spool
	subs := r.subs
	r.mu.Unlock()
	if spool != nil {
		// Flush eagerly: acks advance right after this, and an acked
		// batch's records must already be durable — a crashed relay is
		// rebuilt from the spool, and anything acked but lost would be
		// trimmed from the downstream replay window and gone for good.
		r.mu.Lock()
		_ = spool.WriteAll(r.outBuf)
		_ = spool.Flush()
		r.mu.Unlock()
	}
	for _, s := range subs {
		if s.batch != nil {
			s.batch(r.outBuf)
		}
	}
	for _, rec := range r.outBuf {
		for _, s := range subs {
			if s.fn != nil {
				s.fn(rec)
			}
		}
	}
	r.mDispatch.Add(uint64(len(r.outBuf)))
	r.outBuf = r.outBuf[:0]
}

// satisfied reports whether every record a batch carried has been
// emitted. Reads the merger-owned emitted map — advanceAcks (its only
// caller) runs on the merger goroutine.
func (r *Relay) satisfied(e ackEntry) bool {
	for _, n := range e.needs {
		if r.emitted[n.key] <= n.seq {
			return false
		}
	}
	return true
}

// advanceAcks walks each lane's gated-ack FIFO, advances the frontier
// across the satisfied prefix, and tells the downstream. Runs on the
// merger goroutine at its park points and during final drain.
func (r *Relay) advanceAcks() {
	for _, ln := range *r.lanes.Load() {
		changed := false
		ln.ackMu.Lock()
		for len(ln.pendAcks) > 0 && r.satisfied(ln.pendAcks[0]) {
			if s := ln.pendAcks[0].seq; s > ln.ackSent {
				ln.ackSent = s
				changed = true
			}
			ln.pendAcks = ln.pendAcks[1:]
		}
		v := ln.ackSent
		ln.ackMu.Unlock()
		if !changed {
			continue
		}
		ln.connMu.Lock()
		c := ln.conn
		ln.connMu.Unlock()
		if c != nil {
			if err := c.Send(tp.ControlMessage(ln.node, tp.CtlAck, v)); err == nil {
				r.mAcksGated.Inc()
			}
		}
	}
}

// updateFrontier recomputes the merge frontier: the Time below which
// no future record can be emitted. A lane's contribution is its head's
// Time when it has one, its watermark when idle; an un-refilled ring
// leaves the frontier where it was (unknown backlog). A non-root relay
// reads Watermark() to drive its own uplink marks.
func (r *Relay) updateFrontier() {
	lanes := *r.lanes.Load()
	if len(lanes) == 0 || len(lanes) < r.cfg.Downstreams {
		return
	}
	// This snapshot is loaded fresh, so a lane attached since the last
	// step() may not be covered by heads/has yet.
	r.grow(len(lanes))
	low := int64(math.MaxInt64)
	for i, ln := range lanes {
		var f int64
		if r.has[i] {
			h := &r.heads[i]
			f = h.recs[h.pos].Time
		} else {
			// Watermark before ring, for the same reason as clearFor: a
			// batch landing between the loads must not let its watermark
			// vouch for an empty ring.
			w := ln.watermark.Load()
			if ln.ring.Len() > 0 {
				return
			}
			f = w
		}
		if f < low {
			low = f
		}
	}
	if low > r.frontier.Load() {
		r.frontier.Store(low)
	}
}

// Watermark returns the relay's merge frontier: every record it will
// ever emit from now on carries at least this capture Time. An inner
// tier forwards it upstream via its Uplink's Mark.
func (r *Relay) Watermark() int64 { return r.frontier.Load() }

// quiet reports whether every admitted record has been consumed by the
// merger.
func (r *Relay) quiet() bool {
	for _, ln := range *r.lanes.Load() {
		if ln.admittedRecs.Load() != ln.consumedRecs.Load() {
			return false
		}
	}
	return true
}

// Drain blocks until every record admitted so far has been merged,
// flushed and acked. It needs the downstream watermarks to have
// released everything admitted — a merge stalled waiting for a silent
// lane does not drain (send final marks, or bound the wait with
// MaxStall). End-to-end tests prefer Uplink.WaitAcked, which adds the
// wire to the guarantee.
func (r *Relay) Drain() {
	r.drainUntil(time.Time{})
}

// DrainFor is Drain with a deadline: it reports whether the relay went
// quiet within d. A false return means the watermark rule is still
// holding admitted records — typically because downstream clocks are
// not comparable, so one leaf's final mark trails another leaf's tail,
// or because a downstream went silent without sealing. The caller
// decides what a stalled drain means; Close's final drain will still
// dispatch everything held, and anything left unacked stays covered by
// the downstream replay windows.
func (r *Relay) DrainFor(d time.Duration) bool {
	return r.drainUntil(time.Now().Add(d))
}

func (r *Relay) drainUntil(deadline time.Time) bool {
	expired := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}
	for {
		if r.quiet() {
			p := r.parks.Load()
			r.signal()
			for r.parks.Load() == p && r.quiet() {
				if expired() {
					return false
				}
				time.Sleep(50 * time.Microsecond)
			}
			if r.parks.Load() > p && r.quiet() {
				return true
			}
			continue
		}
		if expired() {
			return false
		}
		r.signal()
		time.Sleep(50 * time.Microsecond)
	}
}

// Stats returns a snapshot of relay activity.
func (r *Relay) Stats() Stats {
	st := Stats{
		Lanes:            len(*r.lanes.Load()),
		Dispatched:       r.mDispatch.Value(),
		Resumes:          r.mResumes.Value(),
		Stalls:           r.mStalls.Value(),
		OrderBreaks:      r.mBreaks.Value(),
		DupRecords:       r.mDups.Value(),
		PartitionRejects: r.mRejects.Value(),
		Marks:            r.mMarks.Value(),
		Held:             int(r.mHeld.Value()),
		SessionDups:      r.recv.TotalDups(),
	}
	return st
}

// Kill shuts the relay down crash-consistently: records admitted but
// not yet emitted are abandoned (drained from the rings and discarded,
// never dispatched or acked), exactly as a real crash would lose them,
// and the spool flushes only what was emitted — the durable state a
// successor rebuilds from via Config.Resume. Every abandoned record is
// still covered by its downstream's replay window, because the
// dispatch gate never acknowledged it. This is the failover path (and
// the crash half of the crash-restart equivalence tests); Close is the
// orderly one.
func (r *Relay) Kill() error {
	r.killed.Store(true)
	return r.Close()
}

// Close shuts the relay down: the merger switches to closing mode
// (drains stall-free so no admission can deadlock on a full ring), the
// downstream connections close, the serve goroutines exit, the merger
// final-drains, and the spool flushes. Records still parked in the
// root causal merge at that point are intentionally NOT emitted or
// acked — their sends never arrived, and the downstream replay windows
// redeliver them to the next incarnation. Callers wanting a clean
// drain quiesce first (final marks + WaitAcked on every uplink).
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conns := append([]tp.Conn(nil), r.conns...)
	r.mu.Unlock()
	r.closing.Store(true)
	r.signal()
	for _, c := range conns {
		_ = c.Close()
	}
	r.serveWG.Wait()
	close(r.stop)
	<-r.runDone
	var err error
	r.mu.Lock()
	if r.spool != nil {
		err = r.spool.Flush()
	}
	r.mu.Unlock()
	return err
}

// 4-ary min-heap over lane indices keyed by each head record's
// (Time, Node, Process) order — the ism merge-heap idiom at record
// granularity.

func (r *Relay) heapLess(a, b int32) bool {
	ha, hb := &r.heads[a], &r.heads[b]
	return ha.recs[ha.pos].Before(hb.recs[hb.pos])
}

func (r *Relay) heapPush(lane int32) {
	r.heap = append(r.heap, lane)
	i := len(r.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !r.heapLess(r.heap[i], r.heap[p]) {
			break
		}
		r.heap[i], r.heap[p] = r.heap[p], r.heap[i]
		i = p
	}
}

func (r *Relay) heapPop() int32 {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	i := 0
	for {
		min := i
		for c := 4*i + 1; c <= 4*i+4 && c < len(r.heap); c++ {
			if r.heapLess(r.heap[c], r.heap[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		r.heap[i], r.heap[min] = r.heap[min], r.heap[i]
		i = min
	}
	return top
}
