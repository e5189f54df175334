package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"prism/internal/trace"
)

// verifier checks the delivered stream as it arrives, in the
// subscriber, so memory stays flat however long the run:
//
//   - exactly once and in program order per (node, process): capture
//     Times strictly increase per source, and a user event's payload
//     is its position in the source's stream;
//   - every receive comes after its matching send, and Lamport stamps
//     strictly increase in dispatch order, so the receive's stamp is
//     the higher one;
//   - with timeOrder, the stream is strictly increasing in
//     (Time, Node, Process), the relay root's merge order.
//
// It runs on the one goroutine that dispatches; the counters other
// goroutines read are atomic.
type verifier struct {
	nodes, procs int32
	timeOrder    bool

	last     []int64 // last capture Time per source
	pos      []int64 // records seen per source
	open     map[msgKey]int
	lastLog  uint64
	prev     trace.Record
	havePrev bool
	err      error

	delivered atomic.Uint64
	verified  atomic.Uint64
	// lat holds each record's capture-to-callback time, one histogram
	// per window of callback time after winStart.
	winStart atomic.Int64
	lat      []*hist
	// all keeps the whole stream when keepAll is set, for checks that
	// need it at once (trace.CheckCausal).
	keepAll bool
	all     []trace.Record

	// waiting is set while the generator is blocked in throttle until
	// delivered reaches resumeAt; the subscriber then wakes it.
	waiting  atomic.Bool
	resumeAt atomic.Uint64
	wake     chan struct{}

	// target is the delivered count that completes the run, set once
	// capture has stopped; done closes when it is reached.
	target   atomic.Uint64
	doneOnce sync.Once
	done     chan struct{}
}

type msgKey struct {
	from, to int32
	tag      uint16
}

func newVerifier(nodes, procs int32, timeOrder bool) *verifier {
	n := nodes * procs
	v := &verifier{
		nodes: nodes, procs: procs, timeOrder: timeOrder,
		last: make([]int64, n), pos: make([]int64, n),
		open: make(map[msgKey]int),
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	for i := range v.last {
		v.last[i] = -1 << 63
	}
	return v
}

// check verifies one record and reports whether it passed.
func (v *verifier) check(r trace.Record) bool {
	if v.err != nil {
		return false
	}
	if r.Node < 0 || r.Node >= v.nodes || r.Process < 0 || r.Process >= v.procs {
		v.err = fmt.Errorf("record from unknown source (%d, %d)", r.Node, r.Process)
		return false
	}
	if r.Logical <= v.lastLog {
		v.err = fmt.Errorf("Lamport stamp %d after %d: not increasing", r.Logical, v.lastLog)
		return false
	}
	v.lastLog = r.Logical
	if v.timeOrder && v.havePrev && !v.prev.Before(r) {
		v.err = fmt.Errorf("root order broken: %v after %v", r, v.prev)
		return false
	}
	v.prev, v.havePrev = r, true
	src := r.Node*v.procs + r.Process
	if r.Time <= v.last[src] {
		v.err = fmt.Errorf("source (%d, %d): Time %d after %d (duplicate or reordered)", r.Node, r.Process, r.Time, v.last[src])
		return false
	}
	v.last[src] = r.Time
	switch r.Kind {
	case trace.KindUser:
		if r.Payload != v.pos[src] {
			v.err = fmt.Errorf("source (%d, %d): user event at position %d carries %d (lost or extra record)", r.Node, r.Process, v.pos[src], r.Payload)
			return false
		}
	case trace.KindSend:
		v.open[msgKey{from: r.Node, to: int32(r.Payload), tag: r.Tag}]++
	case trace.KindRecv:
		k := msgKey{from: int32(r.Payload), to: r.Node, tag: r.Tag}
		n := v.open[k]
		if n == 0 {
			v.err = fmt.Errorf("receive %v dispatched before its send", r)
			return false
		}
		if n == 1 {
			delete(v.open, k)
		} else {
			v.open[k] = n - 1
		}
	default:
		v.err = fmt.Errorf("unexpected record kind %v", r.Kind)
		return false
	}
	v.pos[src]++
	return true
}

// batch verifies one dispatched batch and publishes the counts.
func (v *verifier) batch(rs []trace.Record, now int64) {
	w := int((now - v.winStart.Load()) / windowWidth)
	for len(v.lat) <= w {
		v.lat = append(v.lat, &hist{})
	}
	lat := v.lat[w]
	ok := 0
	for _, r := range rs {
		lat.observe(now - r.Time)
		if v.check(r) {
			ok++
		}
	}
	if v.keepAll {
		v.all = append(v.all, rs...)
	}
	v.verified.Add(uint64(ok))
	d := v.delivered.Add(uint64(len(rs)))
	if v.waiting.Load() && d >= v.resumeAt.Load() {
		select {
		case v.wake <- struct{}{}:
		default:
		}
	}
	v.arrive(d)
}

// throttle closes the loop: it blocks the generator while more than
// window of the captured records are not yet delivered, and resumes it
// once the backlog is down to half the window. A blocked generator
// costs its thread no CPU, as when a flush blocks on the connection.
func (v *verifier) throttle(captured, window uint64) {
	if captured-v.delivered.Load() <= window {
		return
	}
	v.resumeAt.Store(captured - window/2)
	v.waiting.Store(true)
	for v.delivered.Load() < v.resumeAt.Load() {
		<-v.wake
	}
	v.waiting.Store(false)
}

func (v *verifier) arrive(delivered uint64) {
	if t := v.target.Load(); t != 0 && delivered >= t {
		v.doneOnce.Do(func() { close(v.done) })
	}
}

// expect sets the delivered count that completes the run.
func (v *verifier) expect(n uint64) {
	v.target.Store(n)
	v.arrive(v.delivered.Load())
}

// finish checks the end state against the per-source capture counts:
// every captured record delivered, every send received. Call only
// after the dispatching goroutine has stopped.
func (v *verifier) finish(captured func(src int) int64) error {
	if v.err != nil {
		return v.err
	}
	for src := range v.pos {
		if want := captured(src); v.pos[src] != want {
			return fmt.Errorf("source (%d, %d): %d of %d records delivered", int32(src)/v.procs, int32(src)%v.procs, v.pos[src], want)
		}
	}
	if len(v.open) > 0 {
		return fmt.Errorf("%d sends never received", len(v.open))
	}
	if v.keepAll {
		if err := trace.CheckCausal(v.all); err != nil {
			return err
		}
	}
	return nil
}

// latency returns the median over the first windows (those inside
// capture) of each window's p50, p90 and p99, counting only windows
// whose p99 has ten samples beyond it; with none, the percentiles of
// all samples. ok is false when even those are too few.
func (v *verifier) latency(windows int) (p50, p90, p99 float64, ok bool) {
	var p50s, p90s, p99s []float64
	var all hist
	for i, h := range v.lat {
		for b, c := range h.buckets {
			all.buckets[b] += c
		}
		all.n += h.n
		if i >= windows {
			continue
		}
		if c, ok := h.quantile(0.99); ok {
			a, _ := h.quantile(0.50)
			b, _ := h.quantile(0.90)
			p50s, p90s, p99s = append(p50s, a), append(p90s, b), append(p99s, c)
		}
	}
	if len(p99s) > 0 {
		return median(p50s), median(p90s), median(p99s), true
	}
	p50, _ = all.quantile(0.50)
	p90, _ = all.quantile(0.90)
	p99, ok = all.quantile(0.99)
	return p50, p90, p99, ok
}
