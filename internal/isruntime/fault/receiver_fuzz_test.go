package fault

import (
	"testing"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// FuzzReceiver drives a Receiver with arbitrary interleavings of
// hello, heartbeat, sequenced and unsequenced data — duplicates,
// holes and out-of-order arrivals included — for two senders, once
// acking on receipt and once under a dispatch-gated AckFrontier whose
// value the input also moves. Against a model of the protocol it
// checks that:
//
//   - a data batch is handed to the caller exactly when it is fresh:
//     never delivered before and above every hello frontier adopted
//     so far (which the sender has trimmed and will not resend);
//   - a receipt ack never claims a batch that neither arrived nor was
//     covered by an adopted hello frontier;
//   - under AckFrontier, fresh data sends no ack, and every ack the
//     receiver does send (hello reply, duplicate re-ack) carries the
//     hook's current value.
//
// Input layout: each op is two bytes, (kind/node, argument).
func FuzzReceiver(f *testing.F) {
	f.Add([]byte{2, 1, 2, 2, 2, 3})                    // in-order data
	f.Add([]byte{2, 3, 2, 1, 2, 2, 2, 1})              // hole, fill, duplicate
	f.Add([]byte{0, 5, 2, 3, 2, 6, 0, 2, 1, 0})        // hello adoption above a hole
	f.Add([]byte{5, 4, 2, 1, 3, 2, 2, 1, 11, 9, 7, 2}) // gated value moves, second node
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, gated := range []bool{false, true} {
			runReceiverOps(t, gated, ops)
		}
	})
}

// fuzzSeqs bounds the sequence space so duplicates and holes are
// common rather than astronomically rare.
const fuzzSeqs = 24

// receiverModel is the per-node expectation the fuzz checks against.
type receiverModel struct {
	delivered map[int64]bool
	adopted   int64 // highest hello frontier seen
	gated     int64 // the AckFrontier hook's value
}

// covered reports whether every sequence in [1, high] either reached
// the caller or sits under an adopted hello frontier.
func (m *receiverModel) covered(high int64) bool {
	for s := m.adopted + 1; s <= high; s++ {
		if !m.delivered[s] {
			return false
		}
	}
	return true
}

func runReceiverOps(t *testing.T, gated bool, ops []byte) {
	models := [2]*receiverModel{}
	for i := range models {
		models[i] = &receiverModel{delivered: map[int64]bool{}}
	}
	cfg := ReceiverConfig{Clock: &event.VirtualClock{}}
	if gated {
		cfg.AckFrontier = func(node int32) int64 { return models[node].gated }
	}
	r := NewReceiver(cfg)
	conn := &scriptConn{}
	for i := 0; i+1 < len(ops); i += 2 {
		kind, node := ops[i]%6, int32(ops[i]/6%2)
		arg := int64(ops[i+1] % fuzzSeqs)
		md := models[node]
		before := len(conn.sent)
		var msg tp.Message
		switch kind {
		case 0:
			msg = tp.ControlMessage(node, tp.CtlHello, arg)
		case 1:
			msg = tp.ControlMessage(node, tp.CtlHeartbeat, 0)
		case 2, 3, 4:
			msg = tp.DataMessage(node, []trace.Record{{Node: node, Payload: arg}})
			msg.Arg = arg
		case 5:
			md.gated = arg
			continue
		}
		fresh := msg.Type == tp.MsgData && arg > 0 && !md.delivered[arg] && arg > md.adopted
		consumed := r.Filter(conn, msg)
		acks := conn.sent[before:]
		for _, a := range acks {
			if a.Type != tp.MsgControl || a.Control != tp.CtlAck || a.Node != node {
				t.Fatalf("op %d: receiver sent %+v, want an ack to node %d", i/2, a, node)
			}
			if gated && a.Arg != md.gated {
				t.Fatalf("op %d: gated ack carried %d, want the hook's %d", i/2, a.Arg, md.gated)
			}
		}
		switch {
		case msg.Type == tp.MsgControl && msg.Control == tp.CtlHello:
			md.adopted = max(md.adopted, arg)
			if !consumed || len(acks) != 1 {
				t.Fatalf("op %d: hello consumed=%v with %d acks, want consumed with one reply", i/2, consumed, len(acks))
			}
		case msg.Type == tp.MsgControl:
			if !consumed || len(acks) != 0 {
				t.Fatalf("op %d: heartbeat consumed=%v with %d acks", i/2, consumed, len(acks))
			}
		case arg == 0:
			if consumed || len(acks) != 0 {
				t.Fatalf("op %d: unsequenced data consumed=%v with %d acks, want passed through silently", i/2, consumed, len(acks))
			}
		case fresh:
			if consumed {
				t.Fatalf("op %d: fresh batch %d from node %d swallowed", i/2, arg, node)
			}
			md.delivered[arg] = true
			if gated && len(acks) != 0 {
				t.Fatalf("op %d: gated receiver acked fresh batch %d", i/2, arg)
			}
			if !gated && len(acks) != 1 {
				t.Fatalf("op %d: fresh batch %d drew %d acks, want one receipt ack", i/2, arg, len(acks))
			}
		default:
			if !consumed {
				t.Fatalf("op %d: batch %d from node %d delivered twice", i/2, arg, node)
			}
			if len(acks) != 1 {
				t.Fatalf("op %d: duplicate %d drew %d acks, want one re-ack", i/2, arg, len(acks))
			}
		}
		if !gated {
			for _, a := range acks {
				if !md.covered(a.Arg) {
					t.Fatalf("op %d: ack %d from node %d covers a hole (delivered %v, adopted %d)", i/2, a.Arg, node, md.delivered, md.adopted)
				}
			}
		}
		if got, want := r.High(node), md.adopted; got < want {
			t.Fatalf("op %d: frontier %d below adopted hello %d", i/2, got, want)
		}
	}
}
