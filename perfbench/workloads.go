package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	run  func(phaseCfg) (*phase, error)
}

var workloads = []workload{
	{"leaf-firehose", runLeafFirehose},
	{"relay-fanin", runRelayFanIn},
	{"online-paced", runOnlinePaced},
}

// Shapes shared by the leaf workloads.
const (
	lisCapacity = 256 // buffered LIS records per flush
	// ismInputCapacity bounds each source's input buffer in batches, so
	// Block backpressures the connection (and so the application)
	// instead of queueing without limit.
	ismInputCapacity = 64
	uplinkBatch      = 256
	// replayWindow is each uplink's replay window in batches: larger
	// than the unacked backlog a full-speed run builds between the
	// relay's ack points, so no batch leaves the window unacked.
	replayWindow = 4096
	relayRound   = 512 // records generated between uplink pushes
	onlineRate   = 5000

	// backlog is the closed loops' stated input size: the records the
	// application may have captured but not yet seen delivered. Without
	// a bound the backlog moves into the kernel's socket buffers, which
	// grow until the two connections drift seconds apart. It must exceed
	// what the tiers legitimately hold back (a batch per uplink waiting
	// to fill, one relay lane's records waiting for the other lane's
	// watermark; 1 024 deadlocks the relay), and a small one makes the
	// generator park and wake thousands of times a second, which makes
	// the throughput hostage to the host's wake-up latency.
	backlog = 64 * lisCapacity
)

// Event mixes. The firehose's runs are whole LIS buffers of one node;
// the relay's are shorter runs of random sources that interleave across
// lanes; the on-line mix switches source on every event.
var (
	firehoseMix = genConfig{nodes: 2, procs: 1, group: 1,
		runMin: lisCapacity, runMax: 4 * lisCapacity, align: lisCapacity,
		pick: pickAlternate, sendShare: 1.0 / 32}
	relayMix = genConfig{nodes: 4, procs: 1, group: 2,
		runMin: 8, runMax: 64, align: 1,
		pick: pickRandom, sendShare: 1.0 / 32}
	// A pair share of 1/7 of decisions puts a quarter of all events
	// in send/recv pairs (2q/(1+q) with q = 1/7).
	onlineMix = genConfig{nodes: 2, procs: 4, group: 1,
		runMin: 1, runMax: 1, align: 1,
		pick: pickRandomOther, sendShare: 1.0 / 7, forcedRecv: true}
)

// leafTopology is the part the leaf workloads share: an ordered ISM
// with a verifying subscriber behind two loopback TCP connections, one
// LIS per node.
type leafTopology struct {
	clock    *event.RealClock
	reg      *metrics.Registry // ISM and LIS counters
	wire     *metrics.Registry // sending-side tp counters
	spool    *countingWriter
	m        *ism.ISM
	v        *verifier
	tr       *tracer
	ln       *tp.Listener
	dialed   []tp.Conn
	accepted []tp.Conn
	servers  []lis.LIS
	sensors  []*event.Sensor // indexed node*procs + process
	procs    int32
	loops    sync.WaitGroup
}

func buildLeaf(c phaseCfg, mix genConfig, spool bool, newLIS func(node int32, conn tp.Conn, reg *metrics.Registry) (lis.LIS, error)) (*leafTopology, error) {
	t := &leafTopology{
		clock: event.NewRealClock(),
		reg:   metrics.NewRegistry(),
		wire:  metrics.NewRegistry(),
		v:     newVerifier(mix.nodes, mix.procs, false),
		procs: mix.procs,
	}
	cfg := ism.Config{
		Buffering: ism.MISO, Ordered: true, Overflow: flow.Block,
		Shards: runtime.GOMAXPROCS(0), InputCapacity: ismInputCapacity,
		Metrics: t.reg,
	}
	if spool {
		t.spool = &countingWriter{}
		cfg.Spool = t.spool
	}
	t.m = ism.New(cfg, t.clock)
	if c.traced {
		t.tr = newTracer(t.clock, mix.procs)
	}
	t.m.SubscribeBatch("verify", subscriber(t.clock, t.v, t.tr))
	var err error
	t.ln, t.dialed, t.accepted, err = connect(int(mix.nodes), t.m.Serve, tp.WithConnMetrics(t.wire))
	if err != nil {
		t.m.Close()
		return nil, err
	}
	for i, conn := range t.dialed {
		node := int32(i)
		send := conn
		if t.tr != nil {
			send = &timedConn{Conn: conn, t: t.tr}
		}
		s, err := newLIS(node, send, t.reg)
		if err != nil {
			t.teardown()
			return nil, err
		}
		t.servers = append(t.servers, s)
		for p := int32(0); p < mix.procs; p++ {
			t.sensors = append(t.sensors, event.NewSensor(node, p, &strictClock{base: t.clock}, s))
		}
		t.loops.Add(1)
		go func(conn tp.Conn, s lis.LIS) {
			defer t.loops.Done()
			_ = lis.ControlLoop(conn, s) // ends with an error when teardown closes conn
		}(conn, s)
	}
	if err := awaitColumnar(t.dialed); err != nil {
		t.teardown()
		return nil, err
	}
	return t, nil
}

// teardown shuts down in order: LIS before connections, then the ISM.
func (t *leafTopology) teardown() error {
	return withDeadline("leaf teardown", teardownLimit, func() error {
		var errs []error
		for _, s := range t.servers {
			errs = append(errs, s.Close())
		}
		for _, c := range t.dialed {
			c.Close()
		}
		t.loops.Wait()
		for _, c := range t.accepted {
			c.Close()
		}
		t.ln.Close()
		errs = append(errs, t.m.Close())
		return errors.Join(errs...)
	})
}

// emit captures one generated event through its source's sensor.
func (t *leafTopology) emit(e genEvent) {
	t.sensors[e.node*t.procs+e.proc].Emit(e.kind, e.tag, e.payload)
}

// finishLeaf waits for delivery, tears down, and runs the end-of-run
// checks and counter readings the leaf workloads share.
func (t *leafTopology) finishLeaf(p *phase, g *gen, ms *measure) error {
	for _, s := range t.sensors {
		p.captured += s.Captured()
	}
	if err := awaitDelivery(t.v, p.captured); err != nil {
		t.teardown()
		return err
	}
	ms.stop(p)
	if err := t.teardown(); err != nil {
		return err
	}
	p.check = t.v.finish(g.captured)
	st := t.m.Stats()
	var lisCaptured, forwarded, flushes float64
	snap := t.reg.Snapshot()
	for n := range t.servers {
		scope := fmt.Sprintf("lis.node%d.", n)
		lisCaptured += snap.Value(scope + "captured")
		forwarded += snap.Value(scope + "forwarded")
		flushes += snap.Value(scope + "flushes")
	}
	wire := t.wire.Snapshot()
	if p.check == nil {
		p.check = reconcile(p.captured, []namedCount{
			{"lis captured", uint64(lisCaptured)},
			{"lis forwarded", uint64(forwarded)},
			{"tp.recs_tx", uint64(wire.Value("tp.recs_tx"))},
			{"ism arrived", st.Arrived},
			{"ism dispatched", st.Dispatched},
			{"ism delivered", st.Delivered},
			{"verified", p.verified},
		})
	}
	msgs := wire.Value("tp.msgs_sent")
	p.layer = map[string]float64{
		"tp.wire_bytes_per_record":       ratio(wire.Value("tp.bytes_tx"), wire.Value("tp.recs_tx")),
		"tp.messages_per_record":         ratio(msgs, float64(p.captured)),
		"ism.hold_back_ratio":            st.HoldBackRatio,
		"ism.max_held":                   float64(st.MaxHeld),
		"ism.merge_stalls_per_k_records": 1000 * ratio(float64(st.MergeStalls), float64(p.verified)),
		"ism.arrival_to_dispatch_us_p99": float64(t.reg.Histogram("ism.latency_ns").Quantile(0.99)) / 1e3,
	}
	if flushes > 0 {
		p.layer["lis.records_per_flush"] = forwarded / flushes
	} else {
		// A forwarding LIS sends one message per event: each is a flush.
		p.layer["lis.records_per_flush"] = ratio(forwarded, msgs)
	}
	if t.spool != nil {
		p.layer["trace.spool_bytes_per_record"] = ratio(float64(t.spool.n.Load()), float64(p.verified))
	}
	p.tr = t.tr
	return nil
}

// runLeafFirehose: a closed loop. One generator thread plays a
// two-node application, each node a sensor feeding a buffered LIS (FOF,
// 256 records, synchronous flush) on its own TCP connection into an
// ordered MISO ISM that spools.
func runLeafFirehose(c phaseCfg) (*phase, error) {
	p := &phase{}
	t0 := time.Now()
	t, err := buildLeaf(c, firehoseMix, true, func(node int32, conn tp.Conn, reg *metrics.Registry) (lis.LIS, error) {
		return lis.NewBuffered(node, lisCapacity, conn, lis.WithMetrics(reg))
	})
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	if c.setupOnly {
		return p, t.teardown()
	}
	g := newGen(c.seed, firehoseMix)
	batch := make([]genEvent, lisCapacity)
	ms := startMeasure(t.clock, t.v)
	end := ms.start + int64(c.seconds)
	tr := t.tr
	var sent uint64
	err = onGenThread(c.seconds+deliveryLimit, func() {
		for {
			if now := t.clock.Now(); !g.draining {
				ms.tick(now, sent)
				if now >= end {
					ms.endCapture(now, sent)
					g.drain()
				}
			}
			if g.draining && g.done() {
				return
			}
			t.v.throttle(sent, backlog)
			sent += lisCapacity
			// Runs are whole buffers of one node, so this batch fills
			// exactly one LIS buffer and its last emit flushes it.
			for i := range batch {
				batch[i] = g.next()
			}
			if tr == nil {
				ms.capture(lisCapacity, func() {
					for _, e := range batch {
						t.emit(e)
					}
				})
				continue
			}
			tr.batch++
			src := batch[0].node
			var start, f0, f1 int64
			ms.capture(lisCapacity, func() {
				start = tr.now()
				for _, e := range batch[:len(batch)-1] {
					t.emit(e)
				}
				f0 = tr.now()
				t.emit(batch[len(batch)-1])
				f1 = tr.now()
			})
			tr.addGen(span{kind: spanEmit, batch: tr.batch, src: src, recs: lisCapacity, start: start, end: f1})
			tr.addGen(span{kind: spanFlush, batch: tr.batch, src: src, recs: lisCapacity, start: f0, end: f1})
		}
	})
	if err != nil {
		t.teardown()
		return nil, err
	}
	return p, t.finishLeaf(p, g, ms)
}

// runOnlinePaced: an open loop at a fixed offered rate well below
// saturation. Two nodes of four processes, each node a forwarding LIS
// (one message per event) on its own TCP connection into an ordered
// MISO ISM with no spool.
func runOnlinePaced(c phaseCfg) (*phase, error) {
	p := &phase{}
	t0 := time.Now()
	t, err := buildLeaf(c, onlineMix, false, func(node int32, conn tp.Conn, reg *metrics.Registry) (lis.LIS, error) {
		return lis.NewForwarding(node, conn, lis.WithMetrics(reg))
	})
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	if c.setupOnly {
		return p, t.teardown()
	}
	t.v.keepAll = true
	// Sized up front so the kept stream's growth does not move the
	// peak resident set from run to run.
	t.v.all = make([]trace.Record, 0, int(c.seconds.Seconds()*onlineRate)+1024)
	g := newGen(c.seed, onlineMix)
	procs := onlineMix.procs
	interval := int64(time.Second) / onlineRate
	lag := &hist{}
	tr := t.tr
	emit := func(e genEvent) {
		if tr == nil {
			t.emit(e)
			return
		}
		tr.batch++
		start := tr.now()
		t.emit(e)
		tr.addGen(span{kind: spanEmit, batch: tr.batch, src: e.node*procs + e.proc, recs: 1, start: start, end: tr.now()})
	}
	ms := startMeasure(t.clock, t.v)
	var sent uint64
	err = onGenThread(c.seconds+deliveryLimit, func() {
		for k := int64(0); ; k++ {
			due := ms.start + k*interval
			if due >= ms.start+int64(c.seconds) {
				break
			}
			now := t.clock.Now()
			if now < due {
				time.Sleep(time.Duration(due - now))
				now = t.clock.Now()
			}
			ms.tick(now, sent)
			lag.observe(now - due)
			e := g.next()
			ms.capture(1, func() { emit(e) })
			sent++
		}
		ms.endCapture(t.clock.Now(), sent)
		g.drain()
		for !g.done() {
			emit(g.next())
		}
	})
	if err != nil {
		t.teardown()
		return nil, err
	}
	p.lag = lag
	return p, t.finishLeaf(p, g, ms)
}

// runRelayFanIn: a closed loop. The generator pushes per-lane batches
// into two uplinks, each on its own TCP connection, feeding a root
// relay that merges, causally stamps and spools. No LIS and no ISM.
func runRelayFanIn(c phaseCfg) (*phase, error) {
	const lanes = 2
	p := &phase{}
	t0 := time.Now()
	clock := event.NewRealClock()
	reg := metrics.NewRegistry()
	wire := metrics.NewRegistry()
	spool := &countingWriter{}
	mix := relayMix
	v := newVerifier(mix.nodes, mix.procs, true)
	var tr *tracer
	if c.traced {
		tr = newTracer(clock, mix.procs)
	}
	r := relay.New(relay.Config{Root: true, Downstreams: lanes, Spool: spool, Metrics: reg, Clock: clock})
	r.SubscribeBatch("verify", subscriber(clock, v, tr))
	ln, dialed, _, err := connect(lanes, r.Serve, tp.WithConnMetrics(wire))
	if err != nil {
		r.Close()
		return nil, err
	}
	ups := make([]*relay.Uplink, lanes)
	for i, conn := range dialed {
		if tr != nil {
			conn = &timedConn{Conn: conn, t: tr}
		}
		ups[i] = relay.NewUplink(uplinkNode(i), conn, relay.UplinkConfig{
			BatchSize: uplinkBatch, Window: replayWindow, Metrics: reg,
		})
	}
	// Uplinks before the relay: closing an uplink ends its session, and
	// the relay then closes the accepted ends itself.
	teardown := func() error {
		return withDeadline("relay teardown", teardownLimit, func() error {
			var errs []error
			for _, u := range ups {
				errs = append(errs, u.Close())
			}
			errs = append(errs, r.Close())
			ln.Close()
			return errors.Join(errs...)
		})
	}
	// Only now: the uplinks' ack loops are the Recv that lands the
	// relay's columnar advert.
	if err := awaitColumnar(dialed); err != nil {
		teardown()
		return nil, err
	}
	p.setup = time.Since(t0)
	if c.setupOnly {
		return p, teardown()
	}

	g := newGen(c.seed, mix)
	var byLane [lanes][]trace.Record
	var last int64
	pendingMax := 0
	ms := startMeasure(clock, v)
	end := ms.start + int64(c.seconds)
	var sent uint64
	err = onGenThread(c.seconds+deliveryLimit, func() {
		for !(g.draining && g.done()) {
			v.throttle(sent, backlog)
			if now := clock.Now(); !g.draining {
				ms.tick(now, sent)
				if now >= end {
					ms.endCapture(now, sent)
					g.drain()
				}
			}
			// One round: capture Times strictly increase across all
			// lanes, stamped from the real clock at the round's start.
			base := clock.Now()
			if base <= last {
				base = last + 1
			}
			for i := 0; i < relayRound && !(g.draining && g.done()); i++ {
				e := g.next()
				sent++
				last = base + int64(i)
				lane := e.node / mix.group
				byLane[lane] = append(byLane[lane], trace.Record{
					Node: e.node, Process: e.proc, Kind: e.kind, Tag: e.tag,
					Time: last, Logical: uint64(e.seq), Payload: e.payload,
				})
			}
			for i, u := range ups {
				if len(byLane[i]) == 0 {
					continue
				}
				if tr == nil {
					ms.capture(len(byLane[i]), func() { u.Push(byLane[i]) })
				} else {
					tr.batch++
					rs := byLane[i]
					var start, end int64
					ms.capture(len(rs), func() {
						start = tr.now()
						u.Push(rs)
						end = tr.now()
					})
					tr.addGen(span{kind: spanPush, batch: tr.batch, src: rs[len(rs)-1].Node, recs: int32(len(rs)), last: rs[len(rs)-1].Time, start: start, end: end})
				}
				byLane[i] = byLane[i][:0]
				if n := u.Pending(); n > pendingMax {
					pendingMax = n
				}
			}
		}
		// Seal every lane so the merge can release the tails the other
		// lane's watermark was holding.
		if tr != nil {
			tr.batch++ // the seal's sends belong to no push
		}
		for _, u := range ups {
			u.Flush()
			u.Mark(last + 1)
		}
	})
	if err != nil {
		teardown()
		return nil, err
	}
	for src := 0; src < g.sources(); src++ {
		p.captured += uint64(g.captured(src))
	}
	if err := awaitDelivery(v, p.captured); err != nil {
		teardown()
		return nil, err
	}
	ms.stop(p)
	for i, u := range ups {
		if !u.WaitAcked(deliveryLimit) {
			teardown()
			return nil, fmt.Errorf("uplink %d: %d batches still unacknowledged after delivery", i, u.Pending())
		}
		if err := u.Err(); err != nil {
			teardown()
			return nil, fmt.Errorf("uplink send: %w", err)
		}
	}
	if err := teardown(); err != nil {
		return nil, err
	}
	p.check = v.finish(g.captured)
	st := r.Stats()
	snap := reg.Snapshot()
	ws := wire.Snapshot()
	marks := snap.Value("uplink.marks")
	if p.check == nil {
		p.check = reconcile(p.captured, []namedCount{
			{"uplink records", uint64(snap.Value("uplink.records"))},
			{"tp.recs_tx less marks", uint64(ws.Value("tp.recs_tx") - marks)},
			{"relay dispatched", st.Dispatched},
			{"verified", p.verified},
		})
	}
	for i := range ups {
		if lost := snap.Value(fmt.Sprintf("session.node%d.batches_lost", uplinkNode(i))); lost > 0 && p.check == nil {
			p.check = fmt.Errorf("uplink %d: %v batches left the replay window unacknowledged", i, lost)
		}
	}
	p.layer = map[string]float64{
		"tp.wire_bytes_per_record":     ratio(ws.Value("tp.bytes_tx"), ws.Value("tp.recs_tx")),
		"tp.messages_per_record":       ratio(ws.Value("tp.msgs_sent"), float64(p.captured)),
		"relay.stalls_per_k_records":   1000 * ratio(float64(st.Stalls), float64(p.verified)),
		"relay.order_breaks":           float64(st.OrderBreaks),
		"relay.session_dups":           float64(st.SessionDups),
		"fault.window_pending_max":     float64(pendingMax),
		"trace.spool_bytes_per_record": ratio(float64(spool.n.Load()), float64(p.verified)),
	}
	p.tr = tr
	return p, nil
}

// uplinkNode names uplink i on the relay: downstream manager ids are
// unrelated to the node ids inside the records.
func uplinkNode(i int) int32 { return int32(100 + i) }
