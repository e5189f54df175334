package relay

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// genExecution builds a deterministic distributed execution over the
// given node count: user events, matched send/recv pairs across nodes,
// strictly increasing global capture Times (every record has a unique
// Time — the federation's determinism contract) and contiguous
// per-source capture sequences in Logical. Records are returned in
// global Time order.
func genExecution(nodes, events int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	type pend struct {
		from, to int32
		tag      uint16
	}
	var pending []pend
	seqs := make([]uint64, nodes)
	all := make([]trace.Record, 0, events)
	var now int64
	tag := uint16(1)
	for len(all) < events {
		now++
		switch {
		case len(pending) > 0 && rng.Intn(3) == 0:
			p := pending[0]
			pending = pending[1:]
			all = append(all, trace.Record{
				Node: p.to, Kind: trace.KindRecv, Tag: p.tag,
				Time: now, Payload: int64(p.from), Logical: seqs[p.to],
			})
			seqs[p.to]++
		case rng.Intn(3) == 0 && tag < 65000:
			from := int32(rng.Intn(nodes))
			to := int32(rng.Intn(nodes))
			if to == from {
				to = (from + 1) % int32(nodes)
			}
			all = append(all, trace.Record{
				Node: from, Kind: trace.KindSend, Tag: tag,
				Time: now, Payload: int64(to), Logical: seqs[from],
			})
			seqs[from]++
			pending = append(pending, pend{from: from, to: to, tag: tag})
			tag++
		default:
			n := int32(rng.Intn(nodes))
			all = append(all, trace.Record{
				Node: n, Kind: trace.KindUser,
				Time: now, Payload: now, Logical: seqs[n],
			})
			seqs[n]++
		}
	}
	return all
}

// predictRoot is the deterministic in-process federation model: the
// root trace a flat single manager produces from the whole capture in
// global Time order — sequence repair per source, then causal merging
// with Lamport stamps. Any federation topology over the same capture
// must emit exactly this.
func predictRoot(all []trace.Record) []trace.Record {
	sorted := append([]trace.Record(nil), all...)
	trace.SortByTime(sorted)
	seq := trace.NewSequencer()
	cm := trace.NewCausalMerger()
	out := make([]trace.Record, 0, len(all))
	var buf []trace.Record
	for _, r := range sorted {
		s := r.Logical
		r.Logical = 0
		buf = seq.AddTo(buf[:0], r, s)
		for _, rr := range buf {
			out = cm.AddTo(out, rr)
		}
	}
	return out
}

// traceBytes serializes records through the binary trace codec — the
// byte-identity yardstick.
func traceBytes(t *testing.T, rs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteAll(rs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readTrace(t *testing.T, data []byte) []trace.Record {
	t.Helper()
	rs, err := trace.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// fedLeaf is one leaf manager with its uplink: an ordered DeferCausal
// ISM whose dispatch stream feeds an Uplink batch sink. SISO staging
// is load-bearing: the uplink watermark contract needs the leaf to
// dispatch in nondecreasing capture-Time order, and MISO's per-source
// round-robin pop reorders arrival order across sources.
type fedLeaf struct {
	m  *ism.ISM
	up *Uplink
}

func newFedLeaf(node int32, conn tp.Conn, batch int) *fedLeaf {
	var clock event.VirtualClock
	m := ism.New(ism.Config{
		Buffering:   ism.SISO,
		Ordered:     true,
		DeferCausal: true,
		Shards:      2,
		Overflow:    flow.Block,
	}, &clock)
	up := NewUplink(node, conn, UplinkConfig{BatchSize: batch, Window: 512})
	m.SubscribeBatch("uplink", up.Push)
	return &fedLeaf{m: m, up: up}
}

// feed injects records one message at a time — per-leaf Time order,
// the leaf half of the determinism contract — beaconing the watermark
// every beaconEvery records.
func (lf *fedLeaf) feed(recs []trace.Record, beaconEvery int) {
	for i, r := range recs {
		lf.m.Inject(tp.DataMessage(r.Node, []trace.Record{r}))
		if beaconEvery > 0 && i%beaconEvery == beaconEvery-1 {
			lf.up.Beacon()
		}
	}
}

// finish drains the leaf and seals its lane with a final mark at (or
// beyond) the global maximum Time so the leaf never stalls the merge
// again.
func (lf *fedLeaf) finish(finalMark int64) {
	lf.m.Drain()
	lf.up.Flush()
	lf.up.Mark(finalMark)
}

func (lf *fedLeaf) close(t *testing.T) {
	t.Helper()
	if err := lf.m.Close(); err != nil {
		t.Fatal(err)
	}
	_ = lf.up.Close()
}

// drainAll drives a set of replay windows empty together, resending
// across all of them each round. With dispatch-gated acks, one
// uplink's dropped final mark stalls the merge for every other lane,
// so resends must be driven collectively — draining one uplink to
// completion before touching the next can deadlock. Empty windows
// everywhere mean everything ever sent is merged into the root trace.
func drainAll(t *testing.T, ups []*Uplink, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		pending := 0
		for _, up := range ups {
			pending += up.Pending()
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d batches never acked", what, pending)
		}
		for _, up := range ups {
			_ = up.Resend()
		}
		for _, up := range ups {
			up.WaitAcked(5 * time.Millisecond)
		}
	}
}

// skewPartition maps node -> leaf with a deliberately uneven spread:
// half the nodes on leaf 0, then halving shares — the skewed source
// partitioning of the acceptance property.
func skewPartition(nodes, leaves int) []int {
	part := make([]int, nodes)
	leaf, share, used := 0, (nodes+1)/2, 0
	for n := range part {
		part[n] = leaf
		used++
		if used >= share && leaf < leaves-1 {
			leaf++
			used = 0
			if share > 1 {
				share = (share + 1) / 2
			}
		}
	}
	return part
}

// awaitAdmitted waits until the lane for downstream node has handed at
// least n records to the merge. Drain only covers admitted records, and
// a batch just sent over a pipe may still be inside the serve
// goroutine, so a test that sends and then drains waits here first.
func awaitAdmitted(t *testing.T, rel *Relay, node int32, n uint64) {
	t.Helper()
	awaitCond(t, "admission", func() bool {
		ln := rel.lookupLane(node)
		return ln != nil && ln.admittedRecs.Load() >= n
	})
}

// awaitCond polls cond until it holds, failing the test after 5 s.
func awaitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestMarkRecordRoundTrip(t *testing.T) {
	m := markRecord(42)
	if !isMarkBatch([]trace.Record{m}) {
		t.Fatal("mark record not recognized")
	}
	if isMarkBatch([]trace.Record{m, m}) {
		t.Fatal("two-record batch misread as mark")
	}
	if isMarkBatch([]trace.Record{{Kind: trace.KindMark, Time: 42}}) {
		t.Fatal("user-process mark record misread as in-band watermark")
	}
}

// TestRelayAdmissionOrderAndGatedAcks drives raw sequenced batches at
// a relay: an above-hole batch must be parked (not merged early), the
// hole-filling batch releases both in order, an in-band mark advances
// the ack frontier without emitting anything, and acks never run ahead
// of dispatch.
func TestRelayAdmissionOrderAndGatedAcks(t *testing.T) {
	rel := New(Config{Root: true, AckEvery: 1})
	var mu sync.Mutex
	var got []trace.Record
	rel.Subscribe("collect", func(r trace.Record) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	a, b := tp.Pipe(64)
	rel.Serve(b)
	go func() { // drain acks so the pipe never backs up
		for {
			if _, err := a.Recv(); err != nil {
				return
			}
		}
	}()

	batch := func(seq int64, rs ...trace.Record) {
		m := tp.DataMessage(7, rs)
		m.Arg = seq
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	rec := func(seq uint64, tm int64) trace.Record {
		return trace.Record{Node: 3, Kind: trace.KindUser, Time: tm, Payload: tm, Logical: seq}
	}
	// Batch 2 first: delivered by the receiver, parked by the lane.
	batch(2, rec(2, 30), rec(3, 40))
	time.Sleep(10 * time.Millisecond)
	if n := len(got); n != 0 {
		t.Fatalf("above-hole batch leaked %d records into the merge", n)
	}
	if f := rel.ackFrontier(7); f != 0 {
		t.Fatalf("acked %d before the hole closed", f)
	}
	batch(1, rec(0, 10), rec(1, 20))
	awaitAdmitted(t, rel, 7, 4)
	rel.Drain()
	if f := rel.ackFrontier(7); f != 2 {
		t.Fatalf("ack frontier = %d, want 2 after both batches dispatched", f)
	}
	// An in-band mark occupies seq 3 and is trivially satisfied.
	batch(3, markRecord(99))
	awaitCond(t, "mark admission", func() bool { return rel.Stats().Marks == 1 })
	rel.Drain()
	if f := rel.ackFrontier(7); f != 3 {
		t.Fatalf("ack frontier = %d, want 3 after mark", f)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 {
		t.Fatalf("emitted %d records, want 4", len(got))
	}
	for i, r := range got {
		if r.Payload != int64((i+1)*10) {
			t.Fatalf("record %d out of order: payload %d", i, r.Payload)
		}
		if r.Logical != uint64(i+1) {
			t.Fatalf("record %d: Lamport stamp %d, want %d", i, r.Logical, i+1)
		}
	}
	st := rel.Stats()
	if st.Marks != 1 || st.Lanes != 1 || st.OrderBreaks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayHelloAdmitsHeldBatches: a batch held above a hole must be
// admitted when a reconnecting downstream's hello moves the admission
// floor up to it. The session layer has already taken that batch and
// absorbs its replays, so left held it would stall the lane for good.
func TestRelayHelloAdmitsHeldBatches(t *testing.T) {
	rel := New(Config{Root: true})
	ln := rel.laneFor(7)
	rel.admit(ln, 3, []trace.Record{{Node: 1, Kind: trace.KindUser, Time: 5, Logical: 0}}, false)
	rel.admit(ln, 4, []trace.Record{{Node: 1, Kind: trace.KindUser, Time: 6, Logical: 1}}, false)
	if n := ln.admittedRecs.Load(); n != 0 {
		t.Fatalf("admitted %d records above the hole, want 0", n)
	}
	rel.onHello(7, 2)
	if n := ln.admittedRecs.Load(); n != 2 {
		t.Fatalf("admitted %d records after the hello, want 2", n)
	}
	rel.Drain()
	if f := rel.ackFrontier(7); f != 4 {
		t.Fatalf("ack frontier = %d, want 4", f)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayPartitionRejects verifies source-partitioned admission: a
// source that already entered through one lane is refused on another.
func TestRelayPartitionRejects(t *testing.T) {
	rel := New(Config{Root: true})
	a1, b1 := tp.Pipe(16)
	a2, b2 := tp.Pipe(16)
	rel.Serve(b1)
	rel.Serve(b2)
	send := func(conn tp.Conn, node int32, seq int64, rs ...trace.Record) {
		m := tp.DataMessage(node, rs)
		m.Arg = seq
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	send(a1, 100, 1, trace.Record{Node: 5, Kind: trace.KindUser, Time: 1, Logical: 0})
	awaitAdmitted(t, rel, 100, 1)
	rel.Drain()
	send(a2, 101, 1, trace.Record{Node: 5, Kind: trace.KindUser, Time: 2, Logical: 1})
	awaitCond(t, "rejecting admission", func() bool { return rel.Stats().PartitionRejects > 0 })
	rel.Drain()
	st := rel.Stats()
	if st.Dispatched != 1 {
		t.Fatalf("dispatched %d, want only the owning lane's record", st.Dispatched)
	}
	// The rejected record does not gate the ack: lane 101's batch has
	// no surviving needs and acks as soon as the merger next parks.
	deadline := time.Now().Add(5 * time.Second)
	for rel.ackFrontier(101) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("rejecting lane ack frontier = %d, want 1", rel.ackFrontier(101))
		}
		time.Sleep(time.Millisecond)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayMaxStallForcesProgress: a lane that goes silent without a
// watermark stalls the merge; MaxStall bounds the damage by forcing
// the minimum head through, counted as an order break.
func TestRelayMaxStallForcesProgress(t *testing.T) {
	rel := New(Config{Root: true, MaxStall: 2 * time.Millisecond})
	var mu sync.Mutex
	var got []trace.Record
	rel.Subscribe("collect", func(r trace.Record) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	a1, b1 := tp.Pipe(16)
	a2, b2 := tp.Pipe(16)
	rel.Serve(b1)
	rel.Serve(b2)
	// Lane 101 exists (hello) but never sends data or marks.
	if err := a2.Send(tp.ControlMessage(101, tp.CtlHello, 0)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := a2.Recv(); err != nil {
				return
			}
		}
	}()
	laneDeadline := time.Now().Add(5 * time.Second)
	for rel.Stats().Lanes == 0 {
		if time.Now().After(laneDeadline) {
			t.Fatal("silent lane never registered")
		}
		time.Sleep(time.Millisecond)
	}
	m := tp.DataMessage(100, []trace.Record{{Node: 1, Kind: trace.KindUser, Time: 10, Logical: 0}})
	m.Arg = 1
	if err := a1.Send(m); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record never force-dispatched past the silent lane")
		}
		time.Sleep(time.Millisecond)
	}
	if st := rel.Stats(); st.OrderBreaks == 0 {
		t.Fatalf("stats = %+v, want an order break", st)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayRunDispatch drives the merger by hand, one step at a time,
// to pin what a dispatched run may cover: a run of one lane's
// same-source records stops before the next-best head and before the
// first record another lane's watermark does not clear, and a MaxStall
// force releases exactly one record.
func TestRelayRunDispatch(t *testing.T) {
	r := newRelay(Config{Downstreams: 2}) // no merger goroutine: step is ours
	a, b := r.laneFor(100), r.laneFor(101)
	recs := func(node int32, times ...int64) []trace.Record {
		rs := make([]trace.Record, len(times))
		for i, tm := range times {
			rs[i] = trace.Record{Node: node, Kind: trace.KindUser, Time: tm, Logical: uint64(i)}
		}
		return rs
	}
	r.admit(a, 1, recs(1, 10, 11, 12, 30, 31, 32), false)
	r.admit(b, 1, recs(2, 20, 21), false)
	r.admit(b, 2, []trace.Record{markRecord(30)}, false)

	var last int
	step := func(wantTimes ...int64) {
		t.Helper()
		progressed := r.step()
		got := r.outBuf[last:]
		last = len(r.outBuf)
		if progressed != (len(wantTimes) > 0) || len(got) != len(wantTimes) {
			t.Fatalf("step dispatched %v (progress %v), want Times %v", got, progressed, wantTimes)
		}
		for i, rec := range got {
			if rec.Time != wantTimes[i] {
				t.Fatalf("step dispatched %v, want Times %v", got, wantTimes)
			}
		}
	}
	step(10, 11, 12) // stops before lane 101's head (Time 20)
	step(20, 21)     // lane 101's batch ends; its mark keeps the watermark at 30
	step(30)         // 31 is past lane 101's watermark
	step()           // a stall on lane 101
	if r.stalled != b.idx {
		t.Fatalf("stalled on lane %d, want %d", r.stalled, b.idx)
	}
	r.force = true
	step(31) // the MaxStall escape: one record, not the blocked 32 behind it
	if got := r.mBreaks.Value(); got != 1 {
		t.Fatalf("order breaks = %d, want 1", got)
	}
	step()
	r.admit(b, 3, []trace.Record{markRecord(100)}, false)
	step(32)
	step()
	if got := r.mBreaks.Value(); got != 1 {
		t.Fatalf("order breaks = %d, want 1", got)
	}
	for key, want := range map[trace.SourceKey]uint64{{Node: 1}: 6, {Node: 2}: 2} {
		if got := r.emitted[key]; got != want {
			t.Fatalf("emitted[%v] = %d, want %d", key, got, want)
		}
	}
}

// TestRelayDrainForStalledTail reproduces the deployed two-leaf
// shutdown hazard: leaf clocks are independent, so one lane's final
// mark can trail another lane's tail records. An unbounded Drain can
// never finish there (the watermark rule holds the tail forever);
// DrainFor must report the stall instead of hanging, and Close's final
// drain must still dispatch the held records.
func TestRelayDrainForStalledTail(t *testing.T) {
	rel := New(Config{Root: true, Downstreams: 2, AckEvery: 1})
	var mu sync.Mutex
	var got []trace.Record
	rel.Subscribe("collect", func(r trace.Record) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	a1, b1 := tp.Pipe(16)
	a2, b2 := tp.Pipe(16)
	rel.Serve(b1)
	rel.Serve(b2)
	for _, c := range []tp.Conn{a1, a2} {
		go func(c tp.Conn) { // drain acks so the pipes never back up
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}(c)
	}
	send := func(c tp.Conn, node int32, seq int64, rs ...trace.Record) {
		m := tp.DataMessage(node, rs)
		m.Arg = seq
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	// Lane 100: three tail records stamped past lane 101's final mark,
	// sealed with its own final mark.
	send(a1, 100, 1,
		trace.Record{Node: 1, Kind: trace.KindUser, Time: 100, Logical: 0},
		trace.Record{Node: 1, Kind: trace.KindUser, Time: 101, Logical: 1},
		trace.Record{Node: 1, Kind: trace.KindUser, Time: 102, Logical: 2})
	send(a1, 100, 2, markRecord(103))
	// Lane 101 seals with a final mark BELOW the other lane's tail —
	// its clock simply runs behind, and it has nothing more to send.
	send(a2, 101, 1, markRecord(50))
	deadline := time.Now().Add(5 * time.Second)
	for rel.Stats().Marks != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("marks = %d, want 2", rel.Stats().Marks)
		}
		time.Sleep(time.Millisecond)
	}
	if rel.DrainFor(100 * time.Millisecond) {
		t.Fatal("DrainFor reported quiet while the watermark rule held the tail")
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("final drain dispatched %d records, want 3", len(got))
	}
}

// TestFederationMergeEquivalence is the acceptance property: a 2-level
// tree of 4 leaf managers over a skewed source partition emits a
// byte-identical causally ordered root trace to a single flat manager
// (modeled by predictRoot) over the same capture.
func TestFederationMergeEquivalence(t *testing.T) {
	const (
		nodes  = 8
		events = 4000
		leaves = 4
	)
	all := genExecution(nodes, events, 7)
	part := skewPartition(nodes, leaves)
	finalMark := int64(len(all)) + 2

	rel := New(Config{Root: true, AckEvery: 1, Downstreams: leaves})
	var mu sync.Mutex
	var got []trace.Record
	rel.Subscribe("collect", func(r trace.Record) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})

	cells := make([]*fedLeaf, leaves)
	ups := make([]*Uplink, leaves)
	for i := range cells {
		a, b := tp.Pipe(256)
		rel.Serve(b)
		cells[i] = newFedLeaf(int32(100+i), a, 64)
		ups[i] = cells[i].up
	}
	var wg sync.WaitGroup
	for i := range cells {
		sub := make([]trace.Record, 0, events/2)
		for _, r := range all {
			if part[r.Node] == i {
				sub = append(sub, r)
			}
		}
		wg.Add(1)
		go func(lf *fedLeaf, sub []trace.Record) {
			defer wg.Done()
			lf.feed(sub, 512)
			lf.finish(finalMark)
		}(cells[i], sub)
	}
	wg.Wait()
	drainAll(t, ups, "leaves")

	want := predictRoot(all)
	mu.Lock()
	gotCopy := append([]trace.Record(nil), got...)
	mu.Unlock()
	if len(gotCopy) != len(want) {
		t.Fatalf("root emitted %d records, want %d", len(gotCopy), len(want))
	}
	if !bytes.Equal(traceBytes(t, gotCopy), traceBytes(t, want)) {
		for i := range want {
			if gotCopy[i] != want[i] {
				t.Fatalf("divergence at %d: got %+v want %+v", i, gotCopy[i], want[i])
			}
		}
		t.Fatal("traces differ")
	}
	if err := trace.CheckCausal(gotCopy); err != nil {
		t.Fatal(err)
	}
	st := rel.Stats()
	if st.OrderBreaks != 0 || st.PartitionRejects != 0 || st.Lanes != leaves {
		t.Fatalf("stats = %+v", st)
	}
	for _, lf := range cells {
		lf.close(t)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationThreeLevelTree proves the tiers compose: leaves feed
// two inner (non-root) relays whose pass-through output feeds the
// root, and the root trace is still byte-identical to the flat model.
func TestFederationThreeLevelTree(t *testing.T) {
	const (
		nodes  = 8
		events = 2000
		leaves = 4
	)
	all := genExecution(nodes, events, 11)
	part := skewPartition(nodes, leaves)
	finalMark := int64(len(all)) + 2

	root := New(Config{Root: true, AckEvery: 1, Downstreams: 2})
	var mu sync.Mutex
	var got []trace.Record
	root.Subscribe("collect", func(r trace.Record) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})

	inners := make([]*Relay, 2)
	innerUps := make([]*Uplink, 2)
	for i := range inners {
		a, b := tp.Pipe(256)
		root.Serve(b)
		inners[i] = New(Config{AckEvery: 1, Downstreams: 2}) // non-root: pass-through tier
		innerUps[i] = NewUplink(int32(200+i), a, UplinkConfig{BatchSize: 64, Window: 512})
		inners[i].SubscribeBatch("uplink", innerUps[i].Push)
	}
	cells := make([]*fedLeaf, leaves)
	for i := range cells {
		a, b := tp.Pipe(256)
		inners[i/2].Serve(b)
		cells[i] = newFedLeaf(int32(100+i), a, 64)
	}
	var wg sync.WaitGroup
	for i := range cells {
		sub := make([]trace.Record, 0, events/2)
		for _, r := range all {
			if part[r.Node] == i {
				sub = append(sub, r)
			}
		}
		wg.Add(1)
		go func(lf *fedLeaf, sub []trace.Record) {
			defer wg.Done()
			lf.feed(sub, 256)
			lf.finish(finalMark)
		}(cells[i], sub)
	}
	wg.Wait()
	leafUps := make([]*Uplink, leaves)
	for i, lf := range cells {
		leafUps[i] = lf.up
	}
	drainAll(t, leafUps, "leaves")
	// The inner tiers have emitted everything their leaves sent; seal
	// both inner lanes at the root before draining either — the root
	// merge cannot release one inner's tail past the other's silence.
	for i, in := range inners {
		in.Drain()
		innerUps[i].Flush()
		innerUps[i].Mark(finalMark)
	}
	drainAll(t, innerUps, "inners")

	want := predictRoot(all)
	mu.Lock()
	gotCopy := append([]trace.Record(nil), got...)
	mu.Unlock()
	if len(gotCopy) != len(want) {
		t.Fatalf("root emitted %d records, want %d", len(gotCopy), len(want))
	}
	if !bytes.Equal(traceBytes(t, gotCopy), traceBytes(t, want)) {
		t.Fatal("three-level root trace differs from flat model")
	}
	if err := trace.CheckCausal(gotCopy); err != nil {
		t.Fatal(err)
	}
	for _, lf := range cells {
		lf.close(t)
	}
	for i, in := range inners {
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		_ = innerUps[i].Close()
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationCrashResumeExactlyOnce is the chaos property: a
// 2-level tree under fault-injected leaf→relay links (drops and
// disconnects forcing session replay) survives two relay crashes.
// Each crash abandons in-flight records (Kill), and each successor is
// rebuilt from the durable root trace alone; the concatenated output
// across all three incarnations must still be byte-identical to the
// flat model — exactly-once at the root, Lamport continuity included.
func TestFederationCrashResumeExactlyOnce(t *testing.T) {
	const (
		nodes  = 8
		events = 3000
		leaves = 4
		phases = 3
	)
	all := genExecution(nodes, events, 23)
	part := skewPartition(nodes, leaves)
	finalMark := int64(len(all)) + 2

	spools := make([]*bytes.Buffer, 0, phases)
	var curMu sync.Mutex
	var cur *Relay
	var down bool
	current := func() *Relay {
		curMu.Lock()
		defer curMu.Unlock()
		return cur
	}
	setDown := func(v bool) {
		curMu.Lock()
		down = v
		curMu.Unlock()
	}
	isDown := func() bool {
		curMu.Lock()
		defer curMu.Unlock()
		return down
	}
	newIncarnation := func(resume []trace.Record) *Relay {
		spool := &bytes.Buffer{}
		spools = append(spools, spool)
		rel := New(Config{Root: true, AckEvery: 1, Downstreams: leaves, Resume: resume, Spool: spool})
		curMu.Lock()
		cur = rel
		curMu.Unlock()
		return rel
	}
	newIncarnation(nil)

	cells := make([]*fedLeaf, leaves)
	for i := range cells {
		inj, err := fault.NewInjector(9100+uint64(i), fault.Plan{PDrop: 0.05, PDisconnect: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := tp.NewRedial(tp.RedialConfig{
			Dial: func() (tp.Conn, error) {
				if isDown() {
					return nil, tp.ErrConnClosed
				}
				a, b := tp.Pipe(256)
				current().Serve(b)
				return inj.WrapConn(a), nil
			},
			Backoff:    100 * time.Microsecond,
			MaxBackoff: 2 * time.Millisecond,
			Jitter:     0.2,
			Seed:       uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = newFedLeaf(int32(100+i), rd, 32)
	}

	subs := make([][]trace.Record, leaves)
	for i := range subs {
		for _, r := range all {
			if part[r.Node] == i {
				subs[i] = append(subs[i], r)
			}
		}
	}
	feedPhase := func(phase int, last bool) {
		var wg sync.WaitGroup
		for i := range cells {
			sub := subs[i]
			lo, hi := len(sub)*phase/phases, len(sub)*(phase+1)/phases
			wg.Add(1)
			go func(lf *fedLeaf, chunk []trace.Record) {
				defer wg.Done()
				lf.feed(chunk, 128)
				if last {
					lf.finish(finalMark)
				} else {
					lf.m.Drain()
					lf.up.Flush()
				}
			}(cells[i], sub[lo:hi])
		}
		wg.Wait()
		if last {
			ups := make([]*Uplink, leaves)
			for i, lf := range cells {
				ups[i] = lf.up
			}
			drainAll(t, ups, "leaves")
			return
		}
		// Best-effort settle: some batches ack, injected drops and the
		// unmarked Time-tail keep others genuinely in flight — the state
		// the crash must not lose.
		for round := 0; round < 3; round++ {
			for _, lf := range cells {
				_ = lf.up.Resend()
				lf.up.WaitAcked(10 * time.Millisecond)
			}
		}
	}

	var emitted []trace.Record
	for phase := 0; phase < phases; phase++ {
		feedPhase(phase, phase == phases-1)
		if phase == phases-1 {
			break
		}
		// Crash: abandon everything admitted but unemitted, then rebuild
		// the next incarnation from the durable root trace alone.
		setDown(true)
		rel := current()
		if err := rel.Kill(); err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, readTrace(t, spools[len(spools)-1].Bytes())...)
		newIncarnation(append([]trace.Record(nil), emitted...))
		setDown(false)
	}
	final := current()
	final.Drain()
	emitted = append(emitted, readTrace(t, spools[len(spools)-1].Bytes())...)

	want := predictRoot(all)
	if len(emitted) != len(want) {
		t.Fatalf("federation emitted %d records across %d incarnations, want %d",
			len(emitted), phases, len(want))
	}
	if !bytes.Equal(traceBytes(t, emitted), traceBytes(t, want)) {
		for i := range want {
			if emitted[i] != want[i] {
				t.Fatalf("divergence at %d: got %+v want %+v", i, emitted[i], want[i])
			}
		}
		t.Fatal("traces differ")
	}
	if err := trace.CheckCausal(emitted); err != nil {
		t.Fatal(err)
	}
	// Exactly-once, independently of ordering: every unique capture
	// Time appears exactly once.
	seen := make(map[int64]int, len(emitted))
	for _, r := range emitted {
		seen[r.Time]++
	}
	for _, r := range all {
		if seen[r.Time] != 1 {
			t.Fatalf("record at time %d emitted %d times", r.Time, seen[r.Time])
		}
	}
	if st := final.Stats(); st.OrderBreaks != 0 {
		t.Fatalf("final incarnation stats = %+v, want no order breaks", st)
	}
	for _, lf := range cells {
		lf.close(t)
	}
	if err := final.Close(); err != nil {
		t.Fatal(err)
	}
}
