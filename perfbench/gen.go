package main

import (
	"prism/internal/rng"
	"prism/internal/trace"
)

// genEvent is one event the generator asks a source to capture.
type genEvent struct {
	node, proc int32
	kind       trace.Kind
	tag        uint16
	payload    int64
	seq        int64 // position in the source's stream, from 0
}

// pick selects the source of the next run.
type pick uint8

const (
	pickAlternate   pick = iota // cycle through the sources in order
	pickRandom                  // any source, uniformly
	pickRandomOther             // any source but the current one
)

// genConfig shapes one workload's event mix.
type genConfig struct {
	nodes, procs int32
	// group is the number of consecutive node ids that share a
	// connection (a relay lane); send/recv pairs always cross groups.
	group int32
	// Run lengths are drawn uniformly from [runMin, runMax] in steps of
	// align events, so a run of a buffered LIS source ends exactly on a
	// flush when align is the LIS capacity.
	runMin, runMax, align int
	pick                  pick
	// sendShare is the probability that an event starts a send/recv pair.
	sendShare float64
	// forcedRecv makes the receive the very next event after its send,
	// at the destination source; otherwise a source owing receives
	// emits each with probability 1/2 at its own events.
	forcedRecv bool
}

// owedRecv is a receive a destination source still has to capture.
type owedRecv struct {
	from int32
	tag  uint16
}

// gen is the seeded event generator. It decides, for every event,
// which source captures it and what it is; the same seed gives the
// same event sequence. Every send it generates is matched by exactly
// one later receive on a source of another group (after drain), so an
// ordered manager never holds a receive forever.
type gen struct {
	cfg      genConfig
	r        *rng.Stream
	sendCut  uint64
	src      int32 // current source index (node*procs + proc)
	left     int   // events left in the current run
	pos      []int64
	pairSent []uint64 // per (from node, to node): sends generated
	owed     [][]owedRecv
	owedN    int
	forced   int32 // source that must capture the next event, or -1
	draining bool
}

func newGen(seed uint64, cfg genConfig) *gen {
	n := cfg.nodes * cfg.procs
	return &gen{
		cfg:      cfg,
		r:        rng.New(seed),
		sendCut:  uint64(cfg.sendShare * (1 << 63) * 2),
		src:      -1,
		pos:      make([]int64, n),
		pairSent: make([]uint64, cfg.nodes*cfg.nodes),
		owed:     make([][]owedRecv, n),
		forced:   -1,
	}
}

// sources returns the number of (node, process) sources.
func (g *gen) sources() int { return int(g.cfg.nodes * g.cfg.procs) }

// next returns the next event.
func (g *gen) next() genEvent {
	if g.forced >= 0 {
		g.src, g.forced, g.left = g.forced, -1, 0
		return g.recv(g.src)
	}
	if g.left == 0 {
		g.startRun()
	}
	g.left--
	src := g.src
	bits := g.r.Uint64()
	if len(g.owed[src]) > 0 && !g.cfg.forcedRecv && (g.draining || bits&1 == 0) {
		return g.recv(src)
	}
	if !g.draining && bits < g.sendCut {
		return g.send(src)
	}
	return g.emit(src, trace.KindUser, 0, g.pos[src])
}

func (g *gen) startRun() {
	switch g.cfg.pick {
	case pickAlternate:
		g.src = (g.src + 1) % int32(g.sources())
	case pickRandom:
		g.src = int32(g.r.Intn(g.sources()))
	case pickRandomOther:
		s := int32(g.r.Intn(g.sources() - 1))
		if g.src >= 0 && s >= g.src {
			s++
		}
		g.src = s
	}
	steps := (g.cfg.runMax-g.cfg.runMin)/g.cfg.align + 1
	g.left = g.cfg.runMin + g.r.Intn(steps)*g.cfg.align
	if g.draining {
		// Wind down in the shortest aligned runs.
		g.left = g.cfg.runMin
	}
}

func (g *gen) emit(src int32, kind trace.Kind, tag uint16, payload int64) genEvent {
	seq := g.pos[src]
	g.pos[src]++
	return genEvent{node: src / g.cfg.procs, proc: src % g.cfg.procs, kind: kind, tag: tag, payload: payload, seq: seq}
}

func (g *gen) send(src int32) genEvent {
	from := src / g.cfg.procs
	// Peer node: uniform over the nodes outside the sender's group.
	others := g.cfg.nodes - g.cfg.group
	to := int32(g.r.Intn(int(others)))
	if to >= from/g.cfg.group*g.cfg.group {
		to += g.cfg.group
	}
	dst := to*g.cfg.procs + int32(g.r.Intn(int(g.cfg.procs)))
	pair := from*g.cfg.nodes + to
	tag := uint16(g.pairSent[pair])
	g.pairSent[pair]++
	g.owed[dst] = append(g.owed[dst], owedRecv{from: from, tag: tag})
	g.owedN++
	if g.cfg.forcedRecv {
		g.forced = dst
	}
	return g.emit(src, trace.KindSend, tag, int64(to))
}

func (g *gen) recv(src int32) genEvent {
	o := g.owed[src][0]
	g.owed[src] = g.owed[src][1:]
	g.owedN--
	return g.emit(src, trace.KindRecv, o.tag, int64(o.from))
}

// drain stops new sends; the caller keeps calling next until done.
func (g *gen) drain() { g.draining = true }

// done reports whether every send has its receive and the current run
// is complete (for a buffered LIS: its buffers are empty).
func (g *gen) done() bool { return g.owedN == 0 && g.left == 0 && g.forced < 0 }

// captured returns the events generated for source src.
func (g *gen) captured(src int) int64 { return g.pos[src] }
