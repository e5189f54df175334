package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Limits that keep a broken build from hanging a run: every wait in
// the benchmark ends in an error instead.
const (
	negotiateLimit = 5 * time.Second
	deliveryLimit  = 60 * time.Second
	teardownLimit  = 20 * time.Second
)

// phaseCfg is one build-measure-teardown of a workload's topology.
type phaseCfg struct {
	seed      uint64
	seconds   time.Duration
	setupOnly bool // build and tear down, measure nothing
	traced    bool
}

// phase is what one measured phase observed.
type phase struct {
	setup     time.Duration
	captured  uint64 // records the application captured
	delivered uint64
	verified  uint64 // delivered records that passed every output check
	check     error  // first output-check or reconciliation failure

	// Medians over the capture windows: delivered records per second,
	// process CPU per delivered record, generator-thread CPU per
	// captured record, and capture-to-callback percentiles in ns.
	rate, cpuPer, intrusion float64
	windowRates             []float64
	p50, p90, p99           float64
	latOK                   bool

	lag *hist // generator lateness against its schedule (open loop)

	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64

	layer map[string]float64 // per-layer figures read from counters
	tr    *tracer
}

// strictClock stamps one source's captures from the shared real clock,
// nudged so they strictly increase: per-source capture Time then
// identifies a record's place in its source's program order. Only the
// generator thread reads it.
type strictClock struct {
	base *event.RealClock
	last int64
}

func (c *strictClock) Now() int64 {
	t := c.base.Now()
	if t <= c.last {
		t = c.last + 1
	}
	c.last = t
	return t
}

// countingWriter is a spool sink that keeps only the byte count.
type countingWriter struct{ n atomic.Uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(uint64(len(p)))
	return len(p), nil
}

// connect listens on loopback and dials n connections, handing each
// accepted end to serve in dial order.
func connect(n int, serve func(tp.Conn), opts ...tp.ConnOption) (*tp.Listener, []tp.Conn, []tp.Conn, error) {
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("listen: %w", err)
	}
	var dialed, accepted []tp.Conn
	closeAll := func() {
		for _, c := range append(dialed, accepted...) {
			c.Close()
		}
		ln.Close()
	}
	for i := 0; i < n; i++ {
		c, err := tp.DialTimeout(ln.Addr(), negotiateLimit, opts...)
		if err != nil {
			closeAll()
			return nil, nil, nil, fmt.Errorf("dial: %w", err)
		}
		dialed = append(dialed, c)
		a, err := ln.Accept()
		if err != nil {
			closeAll()
			return nil, nil, nil, fmt.Errorf("accept: %w", err)
		}
		accepted = append(accepted, a)
		serve(a)
	}
	return ln, dialed, accepted, nil
}

// awaitColumnar waits until every dialed connection has received its
// peer's columnar advert. Something must already be reading each
// connection (a LIS control loop, an uplink's ack loop): the advert
// lands in Recv.
func awaitColumnar(conns []tp.Conn) error {
	deadline := time.Now().Add(negotiateLimit)
	for _, c := range conns {
		for !tp.ColumnarActive(c) {
			if time.Now().After(deadline) {
				return fmt.Errorf("columnar framing not negotiated within %v", negotiateLimit)
			}
			runtime.Gosched()
		}
	}
	return nil
}

// onGenThread runs fn as the application's one generator thread: a
// goroutine locked to its OS thread, so that thread's CPU time around
// a capture call (measure.capture) is exactly what the call cost the
// application. It fails if fn has not returned within limit: a wedged
// pipeline blocks the generator for good.
func onGenThread(limit time.Duration, fn func()) error {
	done := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		fn()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("generator still blocked after %v", limit)
	}
}

// withDeadline runs fn and fails if it has not returned within d.
func withDeadline(what string, d time.Duration, fn func() error) error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(d):
		return fmt.Errorf("%s did not finish within %v", what, d)
	}
}

// windowWidth splits the timed region into windows; each end-to-end
// figure is the median over the windows that fall inside capture, so a
// short stall of the machine moves one window, not the result.
const windowWidth = int64(500 * time.Millisecond)

// measure brackets the timed region: it starts the memory counters,
// closes a window whenever the generator ticks past a window boundary,
// and stop fills the phase once the last record has been delivered.
type measure struct {
	v     *verifier
	start int64
	mem0  runtime.MemStats

	next                 int64
	last                 winMark
	rate, cpu, intrusion []float64
	capturedEnd          int64

	// calls is the generator thread's CPU per record of each capture
	// call in the window in progress: what instrumenting the
	// application cost it, without the generator's own work, its
	// pacing sleeps or the closed loops' backlog waits.
	calls []float64
}

// capture runs fn, a capture call of recs records on the generator
// thread, and keeps the thread CPU it used per record for the window's
// intrusion figure.
func (m *measure) capture(recs int, fn func()) {
	t0 := threadCPUTime()
	fn()
	m.calls = append(m.calls, float64((threadCPUTime()-t0).Nanoseconds())/float64(recs))
}

// winMark is the state at a window boundary.
type winMark struct {
	at                  int64
	captured, delivered uint64
	cpu                 time.Duration
}

func startMeasure(clock *event.RealClock, v *verifier) *measure {
	m := &measure{v: v}
	runtime.ReadMemStats(&m.mem0)
	m.start = clock.Now()
	v.winStart.Store(m.start)
	return m
}

// tick runs on the generator thread between captures, with the records
// captured so far; the first call sets the baseline.
func (m *measure) tick(now int64, captured uint64) {
	if now < m.next {
		return
	}
	cur := winMark{at: now, captured: captured, delivered: m.v.delivered.Load(),
		cpu: processCPUTime()}
	if m.next != 0 {
		m.addWindow(m.last, cur)
	}
	m.calls = m.calls[:0]
	m.last = cur
	m.next = now + windowWidth
}

func (m *measure) addWindow(a, b winMark) {
	d := float64(b.delivered - a.delivered)
	c := float64(b.captured - a.captured)
	if d == 0 || c == 0 {
		return
	}
	m.rate = append(m.rate, d/time.Duration(b.at-a.at).Seconds())
	m.cpu = append(m.cpu, float64((b.cpu-a.cpu).Nanoseconds())/d)
	m.intrusion = append(m.intrusion, interquartileMean(m.calls))
}

// endCapture is the generator's last call, when capture stops: the
// window in progress is dropped unless no window has closed at all.
func (m *measure) endCapture(now int64, captured uint64) {
	if len(m.rate) == 0 {
		m.addWindow(m.last, winMark{at: now, captured: captured, delivered: m.v.delivered.Load(),
			cpu: processCPUTime()})
	}
	m.capturedEnd = now
}

func (m *measure) stop(p *phase) {
	v := m.v
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.allocBytes = mem.TotalAlloc - m.mem0.TotalAlloc
	p.gcCycles = mem.NumGC - m.mem0.NumGC
	p.gcPauseNs = mem.PauseTotalNs - m.mem0.PauseTotalNs
	p.delivered = v.delivered.Load()
	p.verified = v.verified.Load()
	p.windowRates = append([]float64(nil), m.rate...)
	p.rate, p.cpuPer, p.intrusion = median(m.rate), median(m.cpu), median(m.intrusion)
	p.p50, p.p90, p.p99, p.latOK = v.latency(int((m.capturedEnd - m.start) / windowWidth))
}

// subscriber returns the batch callback that verifies, times and (when
// traced) records every dispatched batch.
func subscriber(clock *event.RealClock, v *verifier, tr *tracer) func([]trace.Record) {
	if tr == nil {
		return func(rs []trace.Record) { v.batch(rs, clock.Now()) }
	}
	return func(rs []trace.Record) {
		start := clock.Now()
		v.batch(rs, start)
		tr.dispatched(rs, start, clock.Now())
	}
}

// awaitDelivery waits, with a deadline, until n records have been
// delivered. It never relies on a manager's Drain, which can return
// before in-flight connection data is admitted.
func awaitDelivery(v *verifier, n uint64) error {
	v.expect(n)
	select {
	case <-v.done:
		return nil
	case <-time.After(deliveryLimit):
		return fmt.Errorf("timed out: %d of %d captured records delivered", v.delivered.Load(), n)
	}
}

// reconcile checks that every layer's count equals the captured count.
func reconcile(captured uint64, counts []namedCount) error {
	for _, c := range counts {
		if c.n != captured {
			return fmt.Errorf("counts do not reconcile: %s = %d, captured = %d", c.name, c.n, captured)
		}
	}
	return nil
}

type namedCount struct {
	name string
	n    uint64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
