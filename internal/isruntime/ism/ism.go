// Package ism implements the Instrumentation System Manager: "the LIS
// forwards instrumentation data from the concurrent system nodes to a
// logically centralized location called the Instrumentation System
// Manager, which manages the data in real-time. The functions of the
// ISM include temporary buffering of data, storing of data on a
// mass-storage device, and pre-processing of data for analysis and/or
// visualization tools (e.g., causal ordering)." (§2.2.2)
//
// The manager supports the two input-buffer configurations the Vista
// case study evaluates (§3.3.2): SISO (single input buffer shared by
// all sources) and MISO (one input buffer per source), a pluggable
// data processor performing causal ordering with logical timestamps,
// an output buffer dispatching to subscribed tools, and optional
// spooling to a trace file for off-line use.
//
// Ingest is sharded: each shard lane owns an input stage and a
// trace.Sequencer restoring per-source program order, and hands its
// ordered sub-stream through a bounded SPSC ring to one merger
// goroutine (merge.go) that k-way merges the lanes on their ingest-
// tick frontiers, applies cross-source causal ordering, and
// dispatches. There is no lock on the record hot path.
//
// The input stage is a bounded flow.Queue with a pluggable overflow
// policy (Config.Overflow); activity is reported through an
// ism-scoped metrics.Registry of which Stats() is a snapshot view.
package ism

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Buffering selects the ISM input-buffer configuration.
type Buffering int

// Input-buffer configurations of §3.3.2.
const (
	// SISO uses a single input buffer for all sources ("Single
	// Input buffer, Single Output buffer").
	SISO Buffering = iota
	// MISO uses one input buffer per source ("Multiple Input
	// buffers, Single Output buffer"), the Falcon arrangement.
	MISO
)

// String returns the configuration mnemonic.
func (b Buffering) String() string {
	if b == SISO {
		return "SISO"
	}
	return "MISO"
}

// Config parameterizes an ISM.
type Config struct {
	// Buffering selects SISO or MISO input buffers.
	Buffering Buffering
	// InputCapacity bounds each input buffer in queued batch
	// envelopes (the unit of transfer is one LIS flush, not one
	// record). Zero means a generous default.
	InputCapacity int
	// Shards fans ingest out across N lanes, each with its own input
	// stage, sequencer and drain goroutine, with source-affinity
	// hashing: a given node always lands in the same shard, so
	// per-source FIFO order — the causal orderer's contract — is
	// preserved, while independent sources decode, stage and sequence
	// in parallel. The lanes' ordered sub-streams are k-way merged by
	// a dedicated merger goroutine before dispatch. Zero or one keeps
	// a single lane.
	Shards int
	// MergeRingCapacity bounds each lane's SPSC hand-off ring to the
	// merger, in batch slots (rounded up to a power of two). A full
	// ring backpressures the lane, which in turn backpressures the
	// input stage under its overflow policy. Zero means a generous
	// default.
	MergeRingCapacity int
	// Overflow selects what the input stage does when a buffer is
	// full. The zero value, flow.DropOldest, keeps the monitoring
	// default: displace stale backlog to admit fresh data. Block
	// applies backpressure to the LIS readers; SpillToStorage demotes
	// the displaced records to OverflowSpill.
	Overflow flow.OverflowPolicy
	// OverflowSpill receives records displaced under SpillToStorage
	// (e.g. an isruntime/storage.Hierarchy).
	OverflowSpill flow.Spill
	// Metrics, when non-nil, is the registry the ISM reports through
	// (under the "ism" scope). Nil gets a private registry.
	Metrics *metrics.Registry
	// Spool, when non-nil, receives every dispatched record in the
	// binary trace format (the off-line storage path of Figure 2).
	Spool io.Writer
	// Ordered enables the causal-ordering data processor. When
	// false, records are dispatched in arrival order (a pure
	// merge-only off-line ISM, as in the PICL Table 1 spec).
	Ordered bool
	// DeferCausal keeps the per-shard sequencers (program order per
	// source is restored exactly as under Ordered) but skips the
	// cross-source causal merge: dispatched records are restamped with
	// fresh per-source uplink sequence numbers in Logical (contiguous
	// from 0 per source) instead of Lamport timestamps. This is the
	// leaf half of the federated tier — a leaf's sends may pair with
	// receives captured on other leaves, so send/recv matching must
	// wait for the root relay; the restamp hands the relay's per-lane
	// sequencers the same per-source contract the LIS capture sequence
	// gives this manager, surviving dedup and resume adoption (the
	// restamped stream is always contiguous even when the input was
	// not). Ignored unless Ordered.
	DeferCausal bool
	// ResumeSources makes the ordered processor adopt a source's
	// first-seen capture sequence as its start instead of holding for
	// sequence zero — required when this manager can (re)start against
	// LIS nodes already mid-stream (the resilient session replays only
	// the unacked suffix; the prefix died with the previous
	// incarnation). Needs an in-order per-source feed, which the
	// session protocol provides. Ignored unless Ordered.
	ResumeSources bool
	// OutputCapacity, when positive, interposes a bounded output
	// buffer between the data processor and the tools (the "Single
	// Output buffer" of the SISO/MISO configurations, §3.3.2): a
	// dispatcher goroutine drains it, so slow tools exert
	// backpressure on the merger only when the buffer fills.
	// Zero keeps synchronous dispatch on the merger goroutine.
	OutputCapacity int
}

// Stats is a snapshot of ISM activity and performance, read from the
// ISM's metrics registry.
type Stats struct {
	Arrived       uint64  // records received from LISes
	Dispatched    uint64  // records delivered to the output buffer
	OutOfOrder    uint64  // arrivals that had to be held back
	Held          int     // currently held records
	MaxHeld       int     // maximum simultaneously held records
	HoldBackRatio float64 // OutOfOrder / Arrived (Falcon's metric, §3.3.2)
	MeanLatencyNs float64 // mean arrival->output-buffer latency
	MaxLatencyNs  int64
	ControlsSeen  uint64 // control messages processed
	// OutputQueued is the current output-buffer occupancy (0 with
	// synchronous dispatch).
	OutputQueued int
	// Delivered counts records handed to subscribers.
	Delivered uint64
	// InputDropped counts records lost to input-stage overflow.
	InputDropped uint64
	// InputSpilled counts records demoted to OverflowSpill.
	InputSpilled uint64
	// MergeStalls counts merger waits imposed by the frontier rule.
	MergeStalls uint64
}

// batchEnv is the unit flowing through the input stage: one data
// message's records (a whole LIS flush) plus its arrival timestamp and
// the global ingest tick the merger orders lanes by. The slice is
// always pool-owned by the time it enters a stage — pooled injections
// transfer ownership zero-copy, unpooled ones are copied into a pooled
// batch — and the merger recycles it after dispatch.
type batchEnv struct {
	node    int32
	recs    []trace.Record
	arrival int64
	tick    uint64
	pooled  bool
}

// ismCounters is the metric set the manager reports under the "ism"
// scope.
type ismCounters struct {
	arrived      *metrics.Counter
	dispatched   *metrics.Counter
	outOfOrder   *metrics.Counter
	controlsSeen *metrics.Counter
	delivered    *metrics.Counter
	held         *metrics.Gauge
	maxHeld      *metrics.Gauge
	latency      *metrics.Histogram
	reg          *metrics.Registry
}

func newISMCounters(reg *metrics.Registry) ismCounters {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := reg.Scope("ism")
	return ismCounters{
		arrived:      s.Counter("arrived"),
		dispatched:   s.Counter("dispatched"),
		outOfOrder:   s.Counter("out_of_order"),
		controlsSeen: s.Counter("controls_seen"),
		delivered:    s.Counter("delivered"),
		held:         s.Gauge("held"),
		maxHeld:      s.Gauge("max_held"),
		latency:      s.Histogram("latency_ns"),
		reg:          reg,
	}
}

// ismShard is one ingest lane: an input stage drained by its own
// goroutine, a per-lane sequencer restoring program order for the
// sources hashed to it, and an SPSC ring handing the ordered
// sub-stream to the merger. Source-affinity hashing keeps each node's
// batches in one lane, so per-source FIFO order survives the fan-out.
type ismShard struct {
	id    int
	input inputStage
	avail chan struct{}

	seq      *trace.Sequencer // nil unless Ordered
	lastHeld int              // last held count folded into the gauge

	ring  *flow.SPSC[mergeSlot]
	space chan struct{} // merger -> lane: a ring slot freed

	// pushedBatches counts batches bound for this lane, raised before
	// the batch's tick is drawn; settledBatches counts batches that
	// left the lane (sequenced, dropped or spilled). Equality means no
	// tick is outstanding — the merger's drained-lane test.
	pushedBatches  atomic.Uint64
	settledBatches atomic.Uint64
	// frontier is the highest tick the lane has finished sequencing
	// (monotone watermark).
	frontier atomic.Uint64
	// done flips when the lane goroutine exits: the stage is drained,
	// the ring holds its final contents, and any still-unsettled push
	// is a drop on the closed stage whose tick postdates every ring
	// slot.
	done atomic.Bool
	// ringRecs counts records pushed into the ring; with the merger's
	// merged counter it forms the Drain watermark.
	ringRecs atomic.Uint64

	ringGauge *metrics.Gauge
	lagGauge  *metrics.Gauge
}

func (s *ismShard) signal() {
	select {
	case s.avail <- struct{}{}:
	default:
	}
}

// signalSpace tells a lane blocked on a full ring that the merger
// freed a slot.
func (s *ismShard) signalSpace() {
	select {
	case s.space <- struct{}{}:
	default:
	}
}

// maxTick raises an atomic tick watermark monotonically.
func maxTick(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ISM is a running instrumentation system manager. Create with New,
// feed it by serving LIS connections (Serve) or direct injection
// (Inject), and consume via Subscribe or the spool.
type ISM struct {
	cfg   Config
	clock event.Clock
	ctr   ismCounters

	shards []*ismShard
	merge  *merger
	tick   atomic.Uint64 // global ingest tick, drawn per batch
	stop   chan struct{}
	runWG  sync.WaitGroup

	pushed    atomic.Uint64
	processed atomic.Uint64

	out       chan trace.Record
	outDone   chan struct{}
	outPushed atomic.Uint64

	mu        sync.Mutex
	subs      []subscriber
	spool     *trace.Writer
	closed    bool
	serveWG   sync.WaitGroup
	lisConns  []tp.Conn
	flushAcks chan struct{}
}

type subscriber struct {
	name  string
	fn    func(trace.Record)
	batch func([]trace.Record)
}

// New creates and starts an ISM. It panics on an invalid overflow
// policy (a configuration, not runtime, error).
func New(cfg Config, clock event.Clock) *ISM {
	if cfg.InputCapacity <= 0 {
		cfg.InputCapacity = 1 << 16
	}
	if cfg.MergeRingCapacity <= 0 {
		cfg.MergeRingCapacity = 256
	}
	if !cfg.Overflow.Valid() {
		panic(fmt.Sprintf("ism: invalid overflow policy %v", cfg.Overflow))
	}
	if clock == nil {
		clock = event.NewRealClock()
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	m := &ISM{
		cfg:   cfg,
		clock: clock,
		ctr:   newISMCounters(cfg.Metrics),
		stop:  make(chan struct{}),
	}
	scope := m.ctr.reg.Scope("ism")
	m.shards = make([]*ismShard, shards)
	for i := range m.shards {
		sh := &ismShard{
			id:    i,
			avail: make(chan struct{}, 1),
			ring:  flow.NewSPSC[mergeSlot](cfg.MergeRingCapacity),
			space: make(chan struct{}, 1),
		}
		// Dropped and spilled batches still settle, or the merger would
		// wait forever for their ticks. They advance the frontier too:
		// a lane absorbing a stream of drops (a lossy policy under
		// overload, or late injections against a closing stage) must
		// clear the frontier rule by watermark, not only by the drained
		// check — the drained check alone livelocks while drops are in
		// flight. Lossy policies carry no cross-lane determinism
		// contract, so the overshoot is harmless.
		settle := func(e batchEnv) {
			maxTick(&sh.frontier, e.tick)
			sh.settledBatches.Add(1)
			m.merge.signal()
		}
		if cfg.Buffering == SISO {
			sh.input = newSISOStage(cfg.InputCapacity, cfg.Overflow, cfg.OverflowSpill, settle)
		} else {
			sh.input = newMISOStage(cfg.InputCapacity, cfg.Overflow, cfg.OverflowSpill, settle)
		}
		if cfg.Ordered {
			sh.seq = trace.NewSequencer()
			if cfg.ResumeSources {
				sh.seq.Resume()
			}
		}
		ss := scope.Scope(fmt.Sprintf("shard%d", i))
		sh.ringGauge = ss.Gauge("ring_occupancy")
		sh.lagGauge = ss.Gauge("frontier_lag")
		m.shards[i] = sh
	}
	m.merge = newMerger(m)
	// Effective configuration, exposed so sweep results stay
	// attributable from a metrics snapshot alone.
	scope.Gauge("shards").Set(int64(shards))
	scope.Gauge("merge_ring_capacity").Set(int64(m.shards[0].ring.Cap()))
	if cfg.Spool != nil {
		m.spool = trace.NewWriter(cfg.Spool)
	}
	if cfg.OutputCapacity > 0 {
		m.out = make(chan trace.Record, cfg.OutputCapacity)
		m.outDone = make(chan struct{})
		go m.dispatchOutput()
	}
	go m.merge.run()
	m.runWG.Add(len(m.shards))
	for _, s := range m.shards {
		go m.runShard(s)
	}
	return m
}

// shardFor maps a source node to its ingest shard. The multiplicative
// hash spreads adjacent node ids across shards while keeping the
// mapping stable — the source-affinity invariant per-source FIFO
// depends on.
func (m *ISM) shardFor(node int32) *ismShard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	h := uint32(node) * 2654435761 // Knuth multiplicative hash
	return m.shards[h%uint32(len(m.shards))]
}

// Metrics returns the registry the ISM reports through.
func (m *ISM) Metrics() *metrics.Registry { return m.ctr.reg }

// dispatchOutput drains the output buffer to the subscribed tools.
func (m *ISM) dispatchOutput() {
	defer close(m.outDone)
	for r := range m.out {
		m.emit(r)
	}
}

// emit hands one record to the spool and every subscriber.
func (m *ISM) emit(r trace.Record) {
	m.mu.Lock()
	spool := m.spool
	subs := m.subs
	m.mu.Unlock()
	if spool != nil {
		m.mu.Lock()
		_ = spool.Write(r)
		m.mu.Unlock()
	}
	for _, s := range subs {
		if s.batch != nil {
			one := [1]trace.Record{r}
			s.batch(one[:])
			continue
		}
		s.fn(r)
	}
	m.ctr.delivered.Inc()
}

// Subscribe registers a tool sink; every dispatched record is passed
// to fn in causal (or arrival) order on the merger goroutine.
// Subscribers must be registered before data flows for complete
// streams; late subscribers see only subsequent records.
func (m *ISM) Subscribe(name string, fn func(trace.Record)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, subscriber{name: name, fn: fn})
}

// SubscribeBatch registers a batch-granular tool sink: every dispatched
// batch is passed to fn as one slice, in dispatch order, on the merger
// goroutine (or in single-record slices on the dispatcher goroutine
// when an output buffer is configured). The slice is only valid for
// the duration of the call — the ISM recycles it into the batch pool
// afterwards — so sinks that keep records must copy. This is the
// uplink hook of the federated tier: forwarding a leaf's merged output
// batch-at-a-time keeps the wire path batch-granular end to end.
func (m *ISM) SubscribeBatch(name string, fn func([]trace.Record)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, subscriber{name: name, batch: fn})
}

// Serve reads messages from a LIS connection until EOF, feeding the
// input stage. It returns immediately; readers run on their own
// goroutines. The connection is remembered so Broadcast can reach it.
func (m *ISM) Serve(conn tp.Conn) { m.ServeFiltered(conn, nil) }

// ServeFiltered is Serve with a message filter interposed before the
// input stage. A filter returning true consumes the message (it never
// reaches Inject) — the hook the resilience layer uses to run its
// session protocol (hello/ack/dedup, fault.Receiver.Filter) in front
// of the manager without the ISM knowing the wire details. A nil
// filter is plain Serve.
func (m *ISM) ServeFiltered(conn tp.Conn, filter func(tp.Conn, tp.Message) bool) {
	m.mu.Lock()
	m.lisConns = append(m.lisConns, conn)
	m.mu.Unlock()
	m.serveWG.Add(1)
	go func() {
		defer m.serveWG.Done()
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if filter != nil && filter(conn, msg) {
				continue
			}
			m.Inject(msg)
		}
	}()
}

// Broadcast sends a control signal to every served LIS connection —
// the ISM-to-LIS control path of Figure 2 (e.g. CtlFlush for a gang
// flush, CtlShutdown for orderly termination).
func (m *ISM) Broadcast(ctl tp.Control, arg int64) {
	m.mu.Lock()
	conns := append([]tp.Conn(nil), m.lisConns...)
	m.mu.Unlock()
	for _, c := range conns {
		_ = c.Send(tp.ControlMessage(-1, ctl, arg))
	}
}

// GangFlush broadcasts CtlFlush to every served LIS and waits (up to
// timeout) for each connection to acknowledge with CtlFlushDone — the
// ISM-coordinated FAOF sweep over the transfer protocol. It returns
// the number of acknowledgements received.
func (m *ISM) GangFlush(timeout time.Duration) int {
	m.mu.Lock()
	want := len(m.lisConns)
	m.flushAcks = make(chan struct{}, want)
	m.mu.Unlock()
	m.Broadcast(tp.CtlFlush, 0)
	got := 0
	deadline := time.After(timeout)
	for got < want {
		select {
		case <-m.flushAcks:
			got++
		case <-deadline:
			return got
		}
	}
	return got
}

// Inject feeds one message directly into the ISM (used by in-process
// deployments and tests). Pooled data messages transfer their record
// slice into the input stage zero-copy — the ISM takes over the
// batch's ownership chain and recycles after dispatch. Unpooled
// messages are copied into a pooled batch, so the caller retains its
// slice either way.
func (m *ISM) Inject(msg tp.Message) {
	switch msg.Type {
	case tp.MsgControl:
		m.ctr.controlsSeen.Inc()
		m.mu.Lock()
		acks := m.flushAcks
		m.mu.Unlock()
		if msg.Control == tp.CtlFlushDone && acks != nil {
			select {
			case acks <- struct{}{}:
			default:
			}
		}
	case tp.MsgData:
		n := len(msg.Records)
		if n == 0 {
			tp.Recycle(&msg)
			return
		}
		s := m.shardFor(msg.Node)
		// The batch must be visible in pushedBatches before its tick
		// is drawn: the merger reads settled==pushed as "no tick
		// outstanding", which must imply no smaller tick is still in
		// flight toward this lane.
		s.pushedBatches.Add(1)
		env := batchEnv{
			node:    msg.Node,
			arrival: m.clock.Now(),
			tick:    m.tick.Add(1),
			pooled:  true,
		}
		if msg.Pooled {
			env.recs = msg.Records
			msg.Records, msg.Pooled = nil, false // ownership moved
		} else {
			env.recs = flow.GetBatch(n)[:n]
			copy(env.recs, msg.Records)
		}
		m.pushed.Add(uint64(n))
		s.input.push(msg.Node, env)
		s.signal()
	}
}

// runShard drains one ingest lane through its sequencer into the
// merge ring.
func (m *ISM) runShard(s *ismShard) {
	defer m.runWG.Done()
	// Mark the lane done before releasing the wait: a merger parked on
	// this lane's settled count re-evaluates against the done flag
	// instead of chasing in-flight drops forever.
	defer func() {
		s.done.Store(true)
		m.merge.signal()
	}()
	for {
		env, ok := s.input.pop()
		if !ok {
			select {
			case <-s.avail:
				continue
			case <-m.stop:
				// Final drain.
				for {
					env, ok := s.input.pop()
					if !ok {
						return
					}
					m.sequenceBatch(s, env)
				}
			}
		}
		m.sequenceBatch(s, env)
	}
}

// sequenceBatch runs one batch envelope through the lane's sequencer
// and hands the program-ordered releases to the merger as one ring
// slot. The whole batch is sequenced in one pass — one batch-pool
// round trip, one ring push, one frontier update per LIS flush instead
// of per record — and a run at a time: the sequencer's cursor is read
// and written once per same-source run. A full ring parks the lane on
// the space signal, which backpressures the input stage under its
// overflow policy.
func (m *ISM) sequenceBatch(s *ismShard, env batchEnv) {
	n := uint64(len(env.recs))
	m.ctr.arrived.Add(n)
	out, pooled := env.recs, env.pooled
	if s.seq != nil {
		buf := flow.GetBatch(len(env.recs))
		ooo := s.seq.OutOfOrder()
		// The sensor carried the capture sequence in Logical; the merger
		// reassigns Logical (Lamport stamp or uplink sequence) on
		// dispatch.
		for rest := env.recs; len(rest) > 0; {
			n := trace.RunLen(rest)
			buf = s.seq.AddRun(buf, rest[:n])
			rest = rest[n:]
		}
		if d := s.seq.OutOfOrder() - ooo; d > 0 {
			m.ctr.outOfOrder.Add(d)
		}
		if env.pooled {
			flow.PutBatch(env.recs)
		}
		// The held gauge sums per-lane and merger contributions;
		// publishing the delta keeps concurrent lanes from clobbering
		// each other's counts.
		if h := s.seq.Held(); h != s.lastHeld {
			m.ctr.held.Add(int64(h - s.lastHeld))
			s.lastHeld = h
			m.ctr.maxHeld.SetMax(m.ctr.held.Value())
		}
		out, pooled = buf, true
	}
	if len(out) > 0 {
		slot := mergeSlot{tick: env.tick, arrival: env.arrival, recs: out, pooled: pooled}
		for !s.ring.TryPush(slot) {
			<-s.space
		}
		s.ringRecs.Add(uint64(len(out)))
		s.ringGauge.Set(int64(s.ring.Len()))
	} else if pooled {
		flow.PutBatch(out)
	}
	// Settle order matters: the frontier must cover the tick before
	// the batch counts as settled, and processed moves last so the
	// Drain watermark implies the ring push above is visible.
	maxTick(&s.frontier, env.tick)
	s.settledBatches.Add(1)
	m.processed.Add(n)
	m.merge.signal()
}

// emitAll hands a dispatched batch to the output buffer or directly to
// the spool and subscribers. It runs on the merger goroutine — the
// single dispatch point behind the parallel lanes.
func (m *ISM) emitAll(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	if m.out != nil {
		m.outPushed.Add(uint64(len(rs)))
		for _, r := range rs {
			m.out <- r // backpressure when the output buffer is full
		}
		return
	}
	m.mu.Lock()
	spool := m.spool
	subs := m.subs
	m.mu.Unlock()
	if spool != nil {
		m.mu.Lock()
		_ = spool.WriteAll(rs)
		m.mu.Unlock()
	}
	for _, s := range subs {
		if s.batch != nil {
			s.batch(rs)
		}
	}
	for _, r := range rs {
		for _, s := range subs {
			if s.fn != nil {
				s.fn(r)
			}
		}
	}
	m.ctr.delivered.Add(uint64(len(rs)))
}

// ShardCount reports the effective number of ingest lanes.
func (m *ISM) ShardCount() int { return len(m.shards) }

// MergeRingCap reports the effective per-lane merge ring capacity
// after the power-of-two rounding the ring applies.
func (m *ISM) MergeRingCap() int { return m.shards[0].ring.Cap() }

// Stats returns a snapshot of ISM statistics — a view over the
// metrics registry plus input-stage accounting.
func (m *ISM) Stats() Stats {
	st := Stats{
		Arrived:       m.ctr.arrived.Value(),
		Dispatched:    m.ctr.dispatched.Value(),
		OutOfOrder:    m.ctr.outOfOrder.Value(),
		Held:          int(m.ctr.held.Value()),
		MaxHeld:       int(m.ctr.maxHeld.Value()),
		MeanLatencyNs: m.ctr.latency.Mean(),
		MaxLatencyNs:  m.ctr.latency.Max(),
		ControlsSeen:  m.ctr.controlsSeen.Value(),
		Delivered:     m.ctr.delivered.Value(),
		InputDropped:  m.stageDropped(),
		InputSpilled:  m.stageSpilled(),
		MergeStalls:   m.merge.stalls.Value(),
	}
	if st.Arrived > 0 {
		st.HoldBackRatio = float64(st.OutOfOrder) / float64(st.Arrived)
	}
	if m.out != nil {
		st.OutputQueued = int(m.outPushed.Load() - st.Delivered)
	}
	return st
}

// stageDropped sums record-granular overflow losses across shards.
func (m *ISM) stageDropped() uint64 {
	var n uint64
	for _, s := range m.shards {
		n += s.input.dropped()
	}
	return n
}

// stageSpilled sums records demoted to spill storage across shards.
func (m *ISM) stageSpilled() uint64 {
	var n uint64
	for _, s := range m.shards {
		n += s.input.spilled()
	}
	return n
}

// ringRecsTotal sums records handed into the merge rings.
func (m *ISM) ringRecsTotal() uint64 {
	var n uint64
	for _, s := range m.shards {
		n += s.ringRecs.Load()
	}
	return n
}

// Drain blocks until every record injected so far has been processed
// and merged. It is a test and shutdown aid; production tools consume
// the live stream. Records injected concurrently with Drain may or may
// not be covered.
func (m *ISM) Drain() {
	target := m.pushed.Load()
	// Records displaced by input-stage overflow are never processed —
	// whether dropped or spilled to storage, they count against the
	// target or overload would hang Drain.
	for m.processed.Load()+m.stageDropped()+m.stageSpilled() < target {
		for _, s := range m.shards {
			s.signal()
		}
		time.Sleep(50 * time.Microsecond)
	}
	// Sequenced records sit in the SPSC rings until the merger consumes
	// them; every lane publishes its ring count before processed, so
	// the ring watermark is final once the loop above exits.
	ringTarget := m.ringRecsTotal()
	for m.merge.merged.Load() < ringTarget {
		m.merge.signal()
		time.Sleep(50 * time.Microsecond)
	}
	if m.out != nil {
		outTarget := m.outPushed.Load()
		for m.ctr.delivered.Value() < outTarget {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Close stops the lanes after draining buffered input, lets the merger
// drain the rings, flushes the spool, and returns. Serve goroutines
// exit when their connections close (the caller owns the connections).
func (m *ISM) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	// The input stages must close BEFORE the lanes stop: an Inject racing
	// Close has already raised its lane's pushed count, and if its stage
	// push landed after that lane's final drain the batch would never
	// settle — the merger would then stall forever on settled < pushed
	// while another lane sits parked on a full ring, deadlocking the
	// runWG wait below. A closed stage rejects the late push as a drop,
	// and the drop hook settles the batch. Envelopes already queued
	// remain poppable, so the lanes' final drain still processes them.
	for _, s := range m.shards {
		s.input.close()
	}
	close(m.stop)
	m.runWG.Wait()
	// Lanes are done: every slot is in the rings. Stop the merger,
	// which final-drains them without the frontier rule.
	close(m.merge.stop)
	<-m.merge.done
	if m.out != nil {
		close(m.out)
		<-m.outDone
	}
	var err error
	m.mu.Lock()
	if m.spool != nil {
		err = m.spool.Flush()
	}
	m.mu.Unlock()
	// Records demoted to spill storage are part of the off-line record:
	// a spill target with buffered state (a storage.Hierarchy main
	// buffer, a Tiered hot window) is flushed so shutdown leaves every
	// demoted record durable, not parked in memory.
	if f, ok := m.cfg.OverflowSpill.(interface{ Flush() error }); ok {
		if ferr := f.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}
