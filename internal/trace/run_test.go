package trace

import (
	"fmt"
	"testing"

	"prism/internal/raceflag"
	"prism/internal/rng"
)

// splitRuns cuts recs into same-source runs: maximal ones, further cut
// at random points so AddRun also sees runs that a maximal split would
// have merged.
func splitRuns(st *rng.Stream, recs []Record) [][]Record {
	var runs [][]Record
	for len(recs) > 0 {
		n := RunLen(recs)
		if n > 1 && st.Intn(4) == 0 {
			n = 1 + st.Intn(n)
		}
		runs = append(runs, recs[:n])
		recs = recs[n:]
	}
	return runs
}

// sequencerArrivals builds an arrival stream for sources that deliver
// in bursts: each burst takes the next few records of one source's
// delivery list, and the lists carry local reorderings (gaps closed
// later) and re-delivered duplicates. Capture sequences travel in
// Logical; some sources start mid-stream.
func sequencerArrivals(st *rng.Stream, sources, perSource int) []Record {
	lists := make([][]uint64, sources)
	for s := range lists {
		base := uint64(0)
		if st.Intn(3) == 0 {
			base = uint64(1 + st.Intn(5)) // mid-stream start (Resume adoption)
		}
		var l []uint64
		for i := 0; i < perSource; i++ {
			l = append(l, base+uint64(i))
		}
		for i := 0; i+1 < len(l); i++ {
			if st.Intn(10) == 0 { // a gap closed one record later
				l[i], l[i+1] = l[i+1], l[i]
			}
		}
		for i := 0; i < perSource/10; i++ { // duplicates of earlier records
			at := 1 + st.Intn(len(l)-1)
			dup := l[st.Intn(at)]
			l = append(l[:at], append([]uint64{dup}, l[at:]...)...)
		}
		lists[s] = l
	}
	var out []Record
	for {
		var live []int
		for s, l := range lists {
			if len(l) > 0 {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			return out
		}
		s := live[st.Intn(len(live))]
		n := 1 + st.Intn(12)
		for ; n > 0 && len(lists[s]) > 0; n-- {
			seq := lists[s][0]
			lists[s] = lists[s][1:]
			out = append(out, Record{
				Node: int32(s / 2), Process: int32(s % 2), Kind: KindUser,
				Tag: uint16(st.Intn(1 << 16)), Time: int64(len(out)), Logical: seq,
			})
		}
	}
}

func sameSequencer(a, b *Sequencer) error {
	if a.Held() != b.Held() || a.MaxHeld() != b.MaxHeld() ||
		a.Sequenced() != b.Sequenced() || a.OutOfOrder() != b.OutOfOrder() {
		return fmt.Errorf("held %d/%d maxHeld %d/%d sequenced %d/%d outOfOrder %d/%d",
			a.Held(), b.Held(), a.MaxHeld(), b.MaxHeld(),
			a.Sequenced(), b.Sequenced(), a.OutOfOrder(), b.OutOfOrder())
	}
	return nil
}

func sameRecords(a, b []Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("released %d vs %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestSequencerAddRunMatchesAddTo: AddRun over any same-source runs is
// per-record AddTo, record for record and counter for counter, through
// gaps, duplicates, Resume adoption and SetNext seeding.
func TestSequencerAddRunMatchesAddTo(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		st := rng.New(uint64(1000 + trial))
		in := sequencerArrivals(st, 1+st.Intn(6), 10+st.Intn(60))
		byRec, byRun := NewSequencer(), NewSequencer()
		if trial%2 == 1 {
			byRec.Resume()
			byRun.Resume()
		}
		if trial%3 == 0 {
			key := SourceKey{Node: 0, Process: 1}
			byRec.SetNext(key, 2)
			byRun.SetNext(key, 2)
		}
		var want, got []Record
		for _, run := range splitRuns(st, in) {
			for _, r := range run {
				want = byRec.AddTo(want, r, r.Logical)
			}
			got = byRun.AddRun(got, run)
			if err := sameRecords(want, got); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := sameSequencer(byRec, byRun); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// causalArrivals builds a run-interleaved delivery of a random message
// passing execution: every source's records stay in program order, but
// sources are drained in random bursts with no regard to the global
// order, so receives regularly arrive before their sends. Tags repeat,
// so the send multiset sees counts above one.
func causalArrivals(st *rng.Stream, nodes, procs, events int) []Record {
	sources := nodes * procs
	streams := make([][]Record, sources)
	type msg struct {
		from int32
		tag  uint16
	}
	owed := make([][]msg, nodes) // sends in flight, by receiving node
	for e := 0; e < events; e++ {
		s := st.Intn(sources)
		node, proc := int32(s/procs), int32(s%procs)
		rec := Record{Node: node, Process: proc, Kind: KindUser, Time: int64(e), Payload: int64(e)}
		switch {
		case len(owed[node]) > 0 && st.Intn(3) == 0:
			m := owed[node][0]
			owed[node] = owed[node][1:]
			rec.Kind, rec.Tag, rec.Payload = KindRecv, m.tag, int64(m.from)
		case st.Intn(4) == 0:
			to := int32(st.Intn(nodes))
			tag := uint16(st.Intn(4))
			rec.Kind, rec.Tag, rec.Payload = KindSend, tag, int64(to)
			owed[to] = append(owed[to], msg{from: node, tag: tag})
		}
		streams[s] = append(streams[s], rec)
	}
	var out []Record
	for {
		var live []int
		for s, l := range streams {
			if len(l) > 0 {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			return out
		}
		s := live[st.Intn(len(live))]
		n := min(1+st.Intn(10), len(streams[s]))
		out = append(out, streams[s][:n]...)
		streams[s] = streams[s][n:]
	}
}

func sameMerger(a, b *CausalMerger) error {
	if a.Held() != b.Held() || a.MaxHeld() != b.MaxHeld() || a.Dispatched() != b.Dispatched() ||
		a.Clock() != b.Clock() || a.OutOfOrder() != b.OutOfOrder() {
		return fmt.Errorf("held %d/%d maxHeld %d/%d dispatched %d/%d clock %d/%d outOfOrder %d/%d",
			a.Held(), b.Held(), a.MaxHeld(), b.MaxHeld(), a.Dispatched(), b.Dispatched(),
			a.Clock(), b.Clock(), a.OutOfOrder(), b.OutOfOrder())
	}
	return nil
}

// TestCausalMergerAddRunMatchesAddTo: AddRun over any same-source runs
// is per-record AddTo — same records, same Lamport stamps, same
// counters — including receives that arrive before their sends, chains
// of stalls, and a merger restored through Observe.
func TestCausalMergerAddRunMatchesAddTo(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		st := rng.New(uint64(5000 + trial))
		in := causalArrivals(st, 2+st.Intn(3), 1+st.Intn(2), 20+st.Intn(200))
		byRec, byRun := NewCausalMerger(), NewCausalMerger()
		if trial%4 == 0 {
			// A restored merger: an emitted prefix replayed through Observe.
			var prefix []Record
			seed := NewCausalMerger()
			for _, r := range causalArrivals(st, 2, 1, 30) {
				prefix = seed.AddTo(prefix, r)
			}
			for _, r := range prefix {
				byRec.Observe(r)
				byRun.Observe(r)
			}
		}
		var want, got []Record
		for _, run := range splitRuns(st, in) {
			for _, r := range run {
				want = byRec.AddTo(want, r)
			}
			got = byRun.AddRun(got, run)
			if err := sameRecords(want, got); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := sameMerger(byRec, byRun); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestCausalMergerStateStaysBounded pins the merger's memory over a long
// stream: matched sends leave no zero-count keys behind (per-pair tags
// would otherwise leave one dead key per message), and a source that
// keeps re-stalling — its queue never fully drains — compacts its queue
// instead of growing the backing array with the stream.
func TestCausalMergerStateStaysBounded(t *testing.T) {
	m := NewCausalMerger()
	var out []Record
	const pairs = 200_000
	for i := 0; i < pairs; i++ {
		tag := uint16(i)
		out = m.AddTo(out[:0], Record{Node: 0, Kind: KindSend, Tag: tag, Payload: 1})
		out = m.AddTo(out[:0], Record{Node: 1, Kind: KindRecv, Tag: tag, Payload: 0})
		if i%2 == 1 { // and some pairs the other way round: receive parks first
			out = m.AddTo(out[:0], Record{Node: 3, Kind: KindRecv, Tag: tag, Payload: 2})
			out = m.AddTo(out[:0], Record{Node: 2, Kind: KindSend, Tag: tag, Payload: 3})
		}
	}
	if n := len(m.sendSeen); n != 0 {
		t.Fatalf("%d send keys left after %d matched pairs", n, pairs)
	}
	if m.Held() != 0 || len(m.recvsHeld) != 0 || len(m.stalled) != 0 {
		t.Fatalf("held %d, recvsHeld %d, stalled %d after every pair matched",
			m.Held(), len(m.recvsHeld), len(m.stalled))
	}

	// Sustained skew: node 5's stream runs lag records ahead of the
	// sends it waits for, so its queue always holds a stalled tail.
	const lag, perRecv = 64, 4
	src := SourceKey{Node: 5}
	next := 0 // node 5's next record, in program order
	feed := func() {
		kind, tag := KindUser, uint16(0)
		if next%perRecv == 0 {
			kind, tag = KindRecv, uint16(next/perRecv)
		}
		out = m.AddTo(out[:0], Record{Node: 5, Kind: kind, Tag: tag, Payload: 4})
		next++
	}
	for next < lag {
		feed()
	}
	maxCap := 0
	for sent := 0; sent < 100_000; sent++ {
		out = m.AddTo(out[:0], Record{Node: 4, Kind: KindSend, Tag: uint16(sent), Payload: 5})
		for i := 0; i < perRecv; i++ {
			feed()
		}
		if q := m.pending[src]; q != nil {
			maxCap = max(maxCap, cap(q.buf))
		}
	}
	if m.Held() > lag+perRecv {
		t.Fatalf("held %d, want at most %d", m.Held(), lag+perRecv)
	}
	if maxCap > 8*lag {
		t.Fatalf("queue backing array reached %d records for a %d-record backlog", maxCap, lag)
	}
}

// TestAddRunFastPathAllocs pins the run fast paths at zero allocations:
// a contiguous run with nothing held, and a run of records that carry
// no message edge.
func TestAddRunFastPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	run := make([]Record, 64)
	for i := range run {
		run[i] = Record{Node: 2, Process: 1, Kind: KindUser, Logical: uint64(i)}
	}
	dst := make([]Record, 0, len(run))
	s := NewSequencer()
	key := SourceKey{Node: 2, Process: 1}
	if a := testing.AllocsPerRun(100, func() {
		s.SetNext(key, 0)
		dst = s.AddRun(dst[:0], run)
	}); a != 0 {
		t.Fatalf("Sequencer.AddRun: %v allocs per run, want 0", a)
	}
	m := NewCausalMerger()
	if a := testing.AllocsPerRun(100, func() {
		dst = m.AddRun(dst[:0], run)
	}); a != 0 {
		t.Fatalf("CausalMerger.AddRun: %v allocs per run, want 0", a)
	}
}

// benchRuns is a relay-shaped input: four sources taking turns in runs
// of 8-64 records, one record in 32 a send to another node, receives
// following their sends. Capture sequences are in Logical.
func benchRuns(n int) []Record {
	st := rng.New(7)
	const sources = 4
	var seq [sources]uint64
	var owed [sources][]uint16
	out := make([]Record, 0, n)
	tag := uint16(0)
	for len(out) < n {
		s := st.Intn(sources)
		for k := 8 + st.Intn(57); k > 0 && len(out) < n; k-- {
			rec := Record{Node: int32(s), Kind: KindUser, Time: int64(len(out)), Logical: seq[s]}
			switch {
			case len(owed[s]) > 0 && st.Intn(2) == 0:
				rec.Kind, rec.Tag, rec.Payload = KindRecv, owed[s][0], int64((s+1)%sources)
				owed[s] = owed[s][1:]
			case st.Intn(32) == 0:
				to := (s + 3) % sources // the node whose receives name s as the peer
				rec.Kind, rec.Tag, rec.Payload = KindSend, tag, int64(to)
				owed[to] = append(owed[to], tag)
				tag++
			}
			seq[s]++
			out = append(out, rec)
		}
	}
	return out
}

func BenchmarkSequencer(b *testing.B) {
	in := benchRuns(1 << 16)
	dst := make([]Record, 0, len(in))
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewSequencer()
			dst = dst[:0]
			for _, r := range in {
				dst = s.AddTo(dst, r, r.Logical)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/record")
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewSequencer()
			dst = dst[:0]
			for rest := in; len(rest) > 0; {
				n := RunLen(rest)
				dst = s.AddRun(dst, rest[:n])
				rest = rest[n:]
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/record")
	})
}

func BenchmarkCausalMerger(b *testing.B) {
	in := benchRuns(1 << 16)
	dst := make([]Record, 0, len(in))
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewCausalMerger()
			dst = dst[:0]
			for _, r := range in {
				dst = m.AddTo(dst, r)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/record")
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewCausalMerger()
			dst = dst[:0]
			for rest := in; len(rest) > 0; {
				n := RunLen(rest)
				dst = m.AddRun(dst, rest[:n])
				rest = rest[n:]
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/record")
	})
}
