package main

import (
	"testing"

	"prism/internal/trace"
)

var mixes = map[string]genConfig{
	"leaf-firehose": firehoseMix,
	"relay-fanin":   relayMix,
	"online-paced":  onlineMix,
}

func TestGenSameSeedSameCapture(t *testing.T) {
	for name, mix := range mixes {
		a, b, c := newGen(7, mix), newGen(7, mix), newGen(8, mix)
		differs := false
		for i := 0; i < 100_000; i++ {
			ea, eb, ec := a.next(), b.next(), c.next()
			if ea != eb {
				t.Fatalf("%s: event %d differs under one seed: %+v vs %+v", name, i, ea, eb)
			}
			differs = differs || ea != ec
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same capture", name)
		}
	}
}

// TestGenEverySendReceived replays a generated capture, drained, and
// checks that every send has exactly one later receive on a source of
// another group, and that user payloads number each source's events.
func TestGenEverySendReceived(t *testing.T) {
	for name, mix := range mixes {
		g := newGen(3, mix)
		open := map[msgKey]int{}
		sends, recvs := 0, 0
		pos := make([]int64, g.sources())
		check := func(e genEvent) {
			src := e.node*mix.procs + e.proc
			if e.seq != pos[src] {
				t.Fatalf("%s: source %d event numbered %d, want %d", name, src, e.seq, pos[src])
			}
			pos[src]++
			switch e.kind {
			case trace.KindUser:
				if e.payload != e.seq {
					t.Fatalf("%s: user payload %d at position %d", name, e.payload, e.seq)
				}
			case trace.KindSend:
				if e.node/mix.group == int32(e.payload)/mix.group {
					t.Fatalf("%s: send %+v stays inside its group", name, e)
				}
				open[msgKey{from: e.node, to: int32(e.payload), tag: e.tag}]++
				sends++
			case trace.KindRecv:
				k := msgKey{from: int32(e.payload), to: e.node, tag: e.tag}
				if open[k] == 0 {
					t.Fatalf("%s: receive %+v before its send", name, e)
				}
				open[k]--
				recvs++
			}
		}
		for i := 0; i < 200_000; i++ {
			check(g.next())
		}
		g.drain()
		for n := 0; !g.done(); n++ {
			if n > 100_000 {
				t.Fatalf("%s: drain does not finish", name)
			}
			check(g.next())
		}
		if sends == 0 || sends != recvs {
			t.Fatalf("%s: %d sends, %d receives", name, sends, recvs)
		}
		for src, n := range pos {
			if g.captured(src) != n {
				t.Fatalf("%s: captured(%d) = %d, generated %d", name, src, g.captured(src), n)
			}
		}
	}
}

// The firehose's flush spans rely on each LIS-capacity batch of events
// coming from one source, so that its last event fills the buffer.
func TestGenFirehoseBatchesAreOneSource(t *testing.T) {
	g := newGen(5, firehoseMix)
	for b := 0; b < 2000; b++ {
		first := g.next()
		for i := 1; i < lisCapacity; i++ {
			if e := g.next(); e.node != first.node || e.proc != first.proc {
				t.Fatalf("batch %d mixes sources at event %d", b, i)
			}
		}
	}
}

// The on-line mix switches source on every event, and a receive
// follows its send immediately.
func TestGenOnlineOneRecordRuns(t *testing.T) {
	g := newGen(9, onlineMix)
	prev := g.next()
	pairs := 0
	for i := 0; i < 100_000; i++ {
		e := g.next()
		if e.node == prev.node && e.proc == prev.proc {
			t.Fatalf("event %d repeats source (%d, %d)", i, e.node, e.proc)
		}
		if prev.kind == trace.KindSend {
			if e.kind != trace.KindRecv || e.node != int32(prev.payload) || e.tag != prev.tag {
				t.Fatalf("send %+v not followed by its receive: %+v", prev, e)
			}
			pairs++
		}
		prev = e
	}
	if share := float64(2*pairs) / 100_000; share < 0.2 || share > 0.3 {
		t.Errorf("pair share %.3f, want about a quarter", share)
	}
}
