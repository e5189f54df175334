package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Spans are recorded from the benchmark's side of each public call:
// the application's emits into a sensor, the LIS flush inside the emit
// that fills the buffer, the tp send inside that flush (a timing
// wrapper around the connection), the uplink push, and the subscriber
// callback. Spans of one capture batch share its id; a dispatch span
// is tied to the capture batch holding its source's latest record by a
// join after the run (join).
type spanKind uint8

const (
	spanEmit spanKind = iota
	spanFlush
	spanSend
	spanPush
	spanDispatch
)

var spanNames = [...]string{"emit", "flush", "send", "push", "dispatch"}

type span struct {
	kind  spanKind
	batch uint32
	src   int32 // source index (node*procs + process)
	recs  int32
	last  int64 // capture Time of the batch's (or run's) last record
	start int64
	end   int64
}

// maxSpans bounds each in-memory span log; later spans are counted but
// not kept.
const maxSpans = 1 << 21

// sampleRecs bounds the captured batches kept for the stage replay.
const sampleRecs = 1 << 18

// tracer holds one traced phase's spans in memory. gen is appended
// only on the generator thread (emits, and the flushes, sends and
// pushes they cause synchronously); disp only on the dispatching
// goroutine.
type tracer struct {
	clock *event.RealClock
	procs int32
	batch uint32 // current capture batch id (generator thread)

	gen, disp []span
	dropped   int

	sample   [][]trace.Record
	sampled  int
	dispRecs uint64
}

func newTracer(clock *event.RealClock, procs int32) *tracer {
	return &tracer{clock: clock, procs: procs}
}

func (t *tracer) now() int64 { return t.clock.Now() }

func (t *tracer) addGen(s span) {
	if len(t.gen) < maxSpans {
		t.gen = append(t.gen, s)
	} else {
		t.dropped++
	}
}

func (t *tracer) addDisp(s span) {
	if len(t.disp) < maxSpans {
		t.disp = append(t.disp, s)
	} else {
		t.dropped++
	}
}

// dispatched records one subscriber callback: a join entry per source
// run in rs, all sharing the callback's interval; the first carries the
// callback's record count.
func (t *tracer) dispatched(rs []trace.Record, start, end int64) {
	first := true
	for i, r := range rs {
		if i+1 < len(rs) && rs[i+1].Node == r.Node && rs[i+1].Process == r.Process {
			continue
		}
		s := span{kind: spanDispatch, src: r.Node*t.procs + r.Process, last: r.Time, start: start, end: end}
		if first {
			s.recs = int32(len(rs))
			first = false
		}
		t.addDisp(s)
	}
	t.dispRecs += uint64(len(rs))
}

// keep copies a sent batch for the stage replay until the sample is
// full.
func (t *tracer) keep(rs []trace.Record) {
	if t.sampled >= sampleRecs || len(rs) == 0 {
		return
	}
	t.sample = append(t.sample, append([]trace.Record(nil), rs...))
	t.sampled += len(rs)
}

// timedConn wraps a sending connection: it times each data Send as a
// tp span of the current capture batch and keeps the batch for the
// stage replay. It must only be used from the generator thread.
type timedConn struct {
	tp.Conn
	t *tracer
}

func (c *timedConn) Send(m tp.Message) error {
	if m.Type != tp.MsgData || len(m.Records) == 0 || isMark(m.Records) {
		return c.Conn.Send(m)
	}
	last := m.Records[len(m.Records)-1]
	n := len(m.Records)
	c.t.keep(m.Records)
	start := c.t.now()
	err := c.Conn.Send(m) // m.Records may be recycled from here on
	c.t.addGen(span{kind: spanSend, batch: c.t.batch, src: last.Node*c.t.procs + last.Process,
		recs: int32(n), last: last.Time, start: start, end: c.t.now()})
	return err
}

// ColumnarActive forwards the wrapped connection's wire negotiation, so
// the session layer still pre-encodes its replay window.
func (c *timedConn) ColumnarActive() bool { return tp.ColumnarActive(c.Conn) }

// isMark reports whether rs is a relay watermark batch (one KindMark
// record with Process -1), which is transport bookkeeping, not data.
func isMark(rs []trace.Record) bool {
	return len(rs) == 1 && rs[0].Process == -1 && rs[0].Kind == trace.KindMark
}

// selfTimes sums each span kind's self time: its duration minus the
// part its children of the same batch cover (emit > flush > send;
// push > send, and an emit's send when the LIS flushes per event).
type selfTimes struct {
	ns    [len(spanNames)]int64
	count [len(spanNames)]int64
}

func (t *tracer) selfTimes() selfTimes {
	var st selfTimes
	type agg struct{ emit, flush, send, push int64 }
	per := map[uint32]*agg{}
	for _, s := range t.gen {
		a := per[s.batch]
		if a == nil {
			a = &agg{}
			per[s.batch] = a
		}
		d := s.end - s.start
		switch s.kind {
		case spanEmit:
			a.emit += d
		case spanFlush:
			a.flush += d
		case spanSend:
			a.send += d
		case spanPush:
			a.push += d
		}
		st.count[s.kind]++
	}
	for _, a := range per {
		st.ns[spanSend] += a.send
		switch {
		case a.push > 0:
			st.ns[spanPush] += a.push - a.send
		case a.flush > 0:
			st.ns[spanFlush] += a.flush - a.send
			st.ns[spanEmit] += a.emit - a.flush
		case a.emit > 0:
			st.ns[spanEmit] += a.emit - a.send
		}
	}
	for _, s := range t.disp {
		if s.recs > 0 {
			st.ns[spanDispatch] += s.end - s.start
			st.count[spanDispatch]++
		}
	}
	return st
}

// join ties every dispatch entry to the capture batch holding its
// source's latest record — the first send of that source whose last
// record is at or after it, since per-source Times strictly increase —
// and records in transit each sent batch's time from its Send
// returning to the callback that delivered its last record.
func (t *tracer) join(transit *hist) {
	sends := map[int32][]span{}
	for _, s := range t.gen {
		if s.kind == spanSend {
			sends[s.src] = append(sends[s.src], s)
		}
	}
	disp := map[int32][]int{}
	for i, d := range t.disp {
		disp[d.src] = append(disp[d.src], i)
	}
	for src, ss := range sends {
		ds := disp[src]
		j := 0
		for _, s := range ss {
			for j < len(ds) && t.disp[ds[j]].last < s.last {
				t.disp[ds[j]].batch = s.batch
				j++
			}
			if j == len(ds) {
				break
			}
			t.disp[ds[j]].batch = s.batch
			transit.observe(t.disp[ds[j]].start - s.end)
		}
	}
}

// write saves the spans as text, one per line:
// kind batch source records last-time start end (ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	all := append(append([]span(nil), t.gen...), t.disp...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	for _, s := range all {
		fmt.Fprintf(w, "%s %d %d %d %d %d %d\n", spanNames[s.kind], s.batch, s.src, s.recs, s.last, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
