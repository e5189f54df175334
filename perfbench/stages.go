package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// stageMinCPU is how much thread CPU each stage replay accumulates, so
// its ns/record rests on many passes over the sample.
const stageMinCPU = 60 * time.Millisecond

// stage is one layer's public entry point, run alone over the sample.
type stage struct {
	name string
	pass func() // one pass over every sampled record
}

// stageTable replays the recorded batches through each layer's public
// entry point alone and returns thread-CPU ns per record for each:
// the per-source sequencer, the causal merger, the columnar wire
// encoder and decoder, and the spool writer.
func stageTable(batches [][]trace.Record) map[string]float64 {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	out := map[string]float64{}
	if n == 0 {
		return out
	}
	// The sequencer's output is the causal merger's input, as in the
	// manager; the sensors' capture sequence travels in Logical.
	ordered := make([]trace.Record, 0, n)
	seqIn := make([]trace.Record, 0, n)
	for _, b := range batches {
		seqIn = append(seqIn, b...)
	}
	ordered = runSequencer(seqIn, ordered)

	var cc trace.ColumnCodec
	var wire bytes.Buffer
	var frame []byte
	for _, b := range batches {
		frame, _ = tp.AppendColumnarMessage(frame[:0], tp.DataMessage(b[0].Node, b), &cc)
		wire.Write(frame)
	}
	encoded := wire.Bytes()
	var buf []trace.Record

	stages := []stage{
		{"stage.sequencer_ns_per_record", func() { buf = runSequencer(seqIn, buf[:0]) }},
		{"stage.causal_ns_per_record", func() {
			cm := trace.NewCausalMerger()
			buf = buf[:0]
			for _, r := range ordered {
				buf = cm.AddTo(buf, r)
			}
		}},
		{"stage.colcodec_encode_ns_per_record", func() {
			for _, b := range batches {
				frame, _ = tp.AppendColumnarMessage(frame[:0], tp.DataMessage(b[0].Node, b), &cc)
			}
		}},
		{"stage.colcodec_decode_ns_per_record", func() {
			r := bytes.NewReader(encoded)
			for {
				m, err := tp.ReadMessage(r)
				if err != nil {
					if err != io.EOF {
						panic("stage replay: decoding frames this process encoded: " + err.Error())
					}
					return
				}
				tp.Recycle(&m)
			}
		}},
		{"stage.spool_encode_ns_per_record", func() {
			w := trace.NewWriter(io.Discard)
			for _, b := range batches {
				_ = w.WriteAll(b) // io.Discard never fails
			}
			_ = w.Flush()
		}},
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, s := range stages {
		s.pass() // warm caches and pools
		passes := 0
		t0 := threadCPUTime()
		var used time.Duration
		for used < stageMinCPU {
			s.pass()
			passes++
			used = threadCPUTime() - t0
		}
		out[s.name] = float64(used.Nanoseconds()) / float64(passes*n)
	}
	return out
}

func runSequencer(in, dst []trace.Record) []trace.Record {
	s := trace.NewSequencer()
	for _, r := range in {
		seq := r.Logical
		r.Logical = 0
		dst = s.AddTo(dst, r, seq)
	}
	return dst
}
