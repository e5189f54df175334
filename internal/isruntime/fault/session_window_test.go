package fault

// The replay window holds each batch only as its columnar body, so
// every path that needs records back — demotion to the spill, replay
// onto a connection framing flat — decodes them. These tests pin that
// the decoded records are the ones sent, and that retaining the body
// is the only allocation a columnar Send makes.

import (
	"reflect"
	"testing"
	"time"

	"prism/internal/isruntime/tp"
	"prism/internal/raceflag"
	"prism/internal/trace"
)

// nullColumnar accepts and discards every message, allocation-free.
type nullColumnar struct{}

func (nullColumnar) Send(tp.Message) error     { return nil }
func (nullColumnar) Recv() (tp.Message, error) { return tp.Message{}, nil }
func (nullColumnar) Close() error              { return nil }
func (nullColumnar) ColumnarActive() bool      { return true }

// variedRecs builds a batch that exercises every column: several
// nodes and processes, mixed kinds, negative and large values.
func variedRecs(base, n int) []trace.Record {
	kinds := []trace.Kind{trace.KindUser, trace.KindSend, trace.KindRecv, trace.KindBlockIn, trace.KindSample}
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.Record{
			Node: int32((base + i) % 3), Process: int32(i % 2), Kind: kinds[i%len(kinds)],
			Tag: uint16(i * 7), Time: int64(base*1000 + i*13), Logical: uint64(base + i),
			Payload: int64(i*i) - 50,
		}
	}
	return rs
}

func TestSessionDemotedBodySpillsOriginals(t *testing.T) {
	sp := &memSpill{}
	cc := &scriptConn{}
	s := NewSession(2, cc, SessionConfig{Window: 2, Spill: sp})
	var want []trace.Record
	for b := 0; b < 5; b++ {
		rs := variedRecs(b, 20+b)
		if b < 3 {
			want = append(want, rs...)
		}
		if err := s.Send(tp.DataMessage(2, rs)); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range cc.sent {
		if m.Enc == nil || m.EncCount != len(m.Records) {
			t.Fatalf("send %d: no encoded body beside the records (enc %d bytes, count %d)", i, len(m.Enc), m.EncCount)
		}
	}
	if s.Spilled() != 3 || s.Pending() != 2 {
		t.Fatalf("spilled %d, pending %d; want 3 and 2", s.Spilled(), s.Pending())
	}
	if !reflect.DeepEqual(sp.rs, want) {
		t.Fatalf("spilled records differ from the three oldest batches sent")
	}

	// A terminal failure demotes the rest, in order.
	want = append(variedRecs(3, 23), variedRecs(4, 24)...)
	want = append(want, variedRecs(5, 25)...)
	sp.rs = nil
	cc.fail = tp.ErrGiveUp
	if err := s.Send(tp.DataMessage(2, variedRecs(5, 25))); err == nil {
		t.Fatal("terminal failure not surfaced")
	}
	if !reflect.DeepEqual(sp.rs, want) {
		t.Fatalf("give-up spilled %d records, want the %d of the window", len(sp.rs), len(want))
	}
}

// staleColumnar claims the columnar capability for a connection that
// frames flat — a capability check that raced a reconnect — so the
// session attaches bare bodies and the transport must decode them.
type staleColumnar struct{ tp.Conn }

func (staleColumnar) ColumnarActive() bool { return true }

// TestSessionFlatReplayDeliversOriginals runs the session over TCP
// with the dialer framing flat. Every replay path — Resend on the
// session's connection, the reconnect replay onConnect performs, and
// a replay whose bare bodies reach the flat transport — must deliver
// the records sent, decoded from the retained bodies.
func TestSessionFlatReplayDeliversOriginals(t *testing.T) {
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type got struct {
		seq  int64
		recs []trace.Record
	}
	gotCh := make(chan got, 64)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m.Type == tp.MsgData {
				gotCh <- got{m.Arg, append([]trace.Record(nil), m.Records...)}
			}
			tp.Recycle(&m)
		}
	}()
	conn, err := tp.Dial(ln.Addr(), tp.WithWireMode(tp.WireFlat))
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(4, conn, SessionConfig{Window: 8})
	defer sess.Close()

	const batches = 3
	want := map[int64][]trace.Record{}
	for b := 0; b < batches; b++ {
		rs := variedRecs(b, 40)
		want[int64(b+1)] = rs
		if err := sess.Send(tp.DataMessage(4, rs)); err != nil {
			t.Fatal(err)
		}
	}
	if tp.ColumnarActive(conn) {
		t.Fatal("flat dialer negotiated columnar")
	}
	if err := sess.Resend(); err != nil {
		t.Fatal(err)
	}
	if err := sess.onConnect(conn); err != nil {
		t.Fatal(err)
	}
	if err := sess.onConnect(staleColumnar{conn}); err != nil {
		t.Fatal(err)
	}
	const paths = 4 // send, resend, reconnect replay, bare-body replay
	counts := map[int64]int{}
	for i := 0; i < paths*batches; i++ {
		select {
		case g := <-gotCh:
			counts[g.seq]++
			if !reflect.DeepEqual(g.recs, want[g.seq]) {
				t.Fatalf("seq %d: delivered records differ from those sent", g.seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d deliveries (counts %v)", i, counts)
		}
	}
	for seq := int64(1); seq <= batches; seq++ {
		if counts[seq] != paths {
			t.Errorf("seq %d delivered %d times, want %d", seq, counts[seq], paths)
		}
	}
}

// TestSessionSendAllocs pins the columnar Send path at one allocation
// per batch: the exact-sized body the window retains. Encoding stages
// in reused scratch and the ring slot is preallocated, so nothing else
// may allocate.
func TestSessionSendAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	s := NewSession(1, nullColumnar{}, SessionConfig{})
	rs := variedRecs(0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Send(tp.DataMessage(1, rs)); err != nil {
			t.Fatal(err)
		}
		s.Deliver(tp.ControlMessage(1, tp.CtlAck, s.nextSeq-1))
	})
	if allocs > 1 {
		t.Fatalf("Send made %.1f allocations per batch, want at most 1 (the retained body)", allocs)
	}
}
