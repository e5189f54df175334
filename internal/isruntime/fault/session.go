package fault

// Session: the sender half of the resilience protocol. A raw tp.Redial
// heals the *connection* but cannot heal the *data* — Send hands
// pooled batches to the wire encoder, so a frame lost under a fault is
// gone at the transport layer. The Session restores delivery by
// sequencing and retaining: every data batch gets a per-node monotonic
// sequence number (Message.Arg, starting at 1; Arg==0 marks legacy
// unsequenced traffic), and its column-encoded body stays in a bounded
// replay window until the receiver's cumulative CtlAck covers it. On
// every reconnect the session introduces itself with CtlHello (Arg =
// last ack it has seen) and replays the still-unacked suffix of the
// window in sequence order. The receiver dedupes, so the wire
// guarantee is at-least-once and the accounting guarantee exactly-once.
//
// Window overflow and give-up demote batches to the flow spill path —
// the same escape hatch the LIS queues use — so bounded memory never
// silently discards records: demoted batches are recoverable from
// storage even though they leave the replay protocol.

import (
	"fmt"
	"sync"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// SessionConfig parameterizes a sender session.
type SessionConfig struct {
	// Window bounds the unacked batches retained for replay, each held
	// as its column-encoded body. When a new batch would exceed it, the
	// oldest is decoded and demoted to Spill. Zero means 256.
	Window int
	// Spill receives demoted batches (window overflow, give-up). Nil
	// means demoted records are dropped (and counted lost).
	Spill flow.Spill
	// Metrics, when non-nil, reports session counters under
	// session.node<N>.
	Metrics *metrics.Registry
}

// Session is a tp.Conn wrapper implementing the sender side of the
// sequencing/replay protocol. Wrap it around a *tp.Redial (its
// OnConnect hook is claimed automatically) or any Conn. One goroutine
// may call Send and another Recv, matching the usual LIS arrangement.
type Session struct {
	node int32
	conn tp.Conn
	cfg  SessionConfig

	mSent     *metrics.Counter
	mReplayed *metrics.Counter
	mSpilled  *metrics.Counter
	mLost     *metrics.Counter

	mu      sync.Mutex
	nextSeq int64
	acked   int64
	// The window holds sequences [low, nextSeq) — contiguous, because
	// sends append at the top and acks and demotions remove at the
	// bottom. Sequence s lives at ring[s&(len(ring)-1)]; the ring's
	// length is a power of two that grows up to cover cfg.Window.
	low     int64
	ring    []windowBatch
	codec   trace.ColumnCodec
	scratch []byte // encode staging so retained bodies are exact-sized
	spilled uint64
	lost    uint64
}

// windowBatch is one retained batch in its only retained form: the
// columnar wire body, encoded once at Send on every connection.
// Replays onto a columnar connection retransmit the bytes verbatim;
// the records are decoded back from them to demote the batch to the
// spill and to replay it onto a connection that does not frame
// columnar (tp.Pipe, flat TCP).
type windowBatch struct {
	enc   []byte
	count int
	crc   uint32
}

// attach puts the encoded body onto an outgoing message so a columnar
// transport frames it without re-encoding.
func (wb windowBatch) attach(m *tp.Message) {
	if wb.enc != nil {
		m.Enc, m.EncCount, m.EncCRC = wb.enc, wb.count, wb.crc
	}
}

// records decodes the batch into dst, which must have room for
// wb.count records, and returns dst resliced to them.
func (wb windowBatch) records(dst []trace.Record) ([]trace.Record, error) {
	dst = dst[:wb.count]
	if wb.count == 0 {
		return dst, nil
	}
	if err := trace.DecodeColumns(wb.enc, dst); err != nil {
		return nil, fmt.Errorf("fault: replay window body: %w", err)
	}
	return dst, nil
}

// message builds the sequenced data message replaying the batch: the
// body attached verbatim when the target frames columnar, records
// decoded into a pooled batch (ownership passes to the transport)
// when it does not.
func (wb windowBatch) message(node int32, seq int64, columnar bool) (tp.Message, error) {
	m := tp.DataMessage(node, nil)
	m.Arg = seq
	switch {
	case columnar:
		wb.attach(&m)
	case wb.count > 0:
		rs, err := wb.records(flow.GetBatch(wb.count))
		if err != nil {
			return m, err
		}
		m.Records, m.Pooled = rs, true
	}
	return m, nil
}

// onConnectSetter is how the session claims a Redial's replay hook
// without depending on the concrete type.
type onConnectSetter interface {
	SetOnConnect(func(tp.Conn) error)
}

// NewSession wraps conn with a replay session for the given node. If
// conn supports SetOnConnect (tp.Redial does), the session installs
// its hello+replay hook so every reconnect resynchronizes before
// traffic resumes.
func NewSession(node int32, conn tp.Conn, cfg SessionConfig) *Session {
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	s := &Session{
		node:    node,
		conn:    conn,
		cfg:     cfg,
		nextSeq: 1,
		low:     1,
	}
	if cfg.Metrics != nil {
		sc := cfg.Metrics.Scope("session").Scope("node" + itoa(int(node)))
		s.mSent = sc.Counter("batches_sent")
		s.mReplayed = sc.Counter("batches_replayed")
		s.mSpilled = sc.Counter("batches_spilled")
		s.mLost = sc.Counter("batches_lost")
	}
	if rc, ok := conn.(onConnectSetter); ok {
		rc.SetOnConnect(s.onConnect)
	}
	return s
}

// itoa avoids strconv for the tiny node ids used in metric scopes.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Send implements tp.Conn. Data messages are stamped with the next
// sequence number and their records column-encoded into the replay
// window before transmission; a retryable transport failure is
// therefore absorbed (the batch replays on reconnect) and Send reports
// success. The encoded body rides along with the records, so a
// columnar transport frames it instead of encoding again; flat
// transports frame the records. Control messages
// pass through unsequenced. A terminal failure (ErrGiveUp,
// unclassified) demotes the whole window to the spill path and
// surfaces the error.
func (s *Session) Send(m tp.Message) error {
	if m.Type != tp.MsgData {
		return s.conn.Send(m)
	}
	s.mu.Lock()
	if s.pendingLocked() >= s.cfg.Window {
		s.demoteOldestLocked()
	}
	seq := s.nextSeq
	wb := s.retainLocked(m.Records)
	s.mu.Unlock()
	if s.mSent != nil {
		s.mSent.Inc()
	}

	m.Arg = seq
	wb.attach(&m)
	err := s.conn.Send(m)
	if err == nil || tp.Retryable(err) {
		// Retryable: the body in the window replays on reconnect, so
		// from the caller's perspective the batch is on its way.
		return nil
	}
	s.mu.Lock()
	for s.pendingLocked() > 0 {
		s.demoteOldestLocked()
	}
	s.mu.Unlock()
	return err
}

// pendingLocked is the number of batches in the window. Called with
// s.mu held.
func (s *Session) pendingLocked() int { return int(s.nextSeq - s.low) }

// retainLocked encodes rs into the window slot of the next sequence
// and advances it, growing the ring when the window outgrows it.
// Called with s.mu held.
func (s *Session) retainLocked(rs []trace.Record) windowBatch {
	if n := s.pendingLocked(); n == len(s.ring) {
		grown := make([]windowBatch, max(8, 2*n))
		mask := int64(len(grown) - 1)
		for seq := s.low; seq < s.nextSeq; seq++ {
			grown[seq&mask] = s.ring[seq&int64(n-1)]
		}
		s.ring = grown
	}
	var wb windowBatch
	if len(rs) > 0 {
		// Stage in the reusable scratch, then copy exact-sized: the
		// window retains the body until acked, so encoding straight
		// into a fresh slice would pay the append growth chain on
		// every batch.
		s.scratch, wb.crc = tp.EncodeColumnarBody(s.scratch[:0], rs, &s.codec)
		wb.enc = append(make([]byte, 0, len(s.scratch)), s.scratch...)
		wb.count = len(rs)
	}
	s.ring[s.slot(s.nextSeq)] = wb
	s.nextSeq++
	return wb
}

// slot is the ring index of seq.
func (s *Session) slot(seq int64) int { return int(seq & int64(len(s.ring)-1)) }

// popLocked drops the lowest-sequence window entry and returns it.
// Called with s.mu held and the window non-empty.
func (s *Session) popLocked() windowBatch {
	i := s.slot(s.low)
	wb := s.ring[i]
	s.ring[i] = windowBatch{}
	s.low++
	return wb
}

// demoteOldestLocked moves the lowest-sequence window entry to the
// spill path, decoding its records from the retained body. Called with
// s.mu held.
func (s *Session) demoteOldestLocked() {
	if s.pendingLocked() == 0 {
		return
	}
	wb := s.popLocked()
	if s.cfg.Spill != nil {
		rs, err := wb.records(make([]trace.Record, wb.count))
		if err == nil {
			err = s.cfg.Spill.Append(rs...)
		}
		if err == nil {
			s.spilled++
			if s.mSpilled != nil {
				s.mSpilled.Inc()
			}
			return
		}
	}
	s.lost++
	if s.mLost != nil {
		s.mLost.Inc()
	}
}

// snapshotLocked copies the window entries from sequence from upward,
// returning the first copied sequence. The bodies are shared, not
// copied: they are never mutated, so replay outside the lock does not
// race the window bookkeeping. Called with s.mu held.
func (s *Session) snapshotLocked(from int64) (int64, []windowBatch) {
	from = max(from, s.low)
	if from >= s.nextSeq {
		return from, nil
	}
	out := make([]windowBatch, 0, s.nextSeq-from)
	for seq := from; seq < s.nextSeq; seq++ {
		out = append(out, s.ring[s.slot(seq)])
	}
	return from, out
}

// replay sends the snapshot batches, in sequence order starting at
// first, on conn.
func (s *Session) replay(conn tp.Conn, first int64, batches []windowBatch) error {
	columnar := tp.ColumnarActive(conn)
	for i, wb := range batches {
		m, err := wb.message(s.node, first+int64(i), columnar)
		if err != nil {
			return err
		}
		if err := conn.Send(m); err != nil {
			return err
		}
		if s.mReplayed != nil {
			s.mReplayed.Inc()
		}
	}
	return nil
}

// onConnect runs on the raw connection of every (re)establishment:
// hello with the last seen ack, then the unacked window suffix in
// sequence order.
func (s *Session) onConnect(raw tp.Conn) error {
	s.mu.Lock()
	acked := s.acked
	first, batches := s.snapshotLocked(acked + 1)
	s.mu.Unlock()

	hello := tp.ControlMessage(s.node, tp.CtlHello, acked)
	if err := raw.Send(hello); err != nil {
		return err
	}
	return s.replay(raw, first, batches)
}

// Deliver consumes session-protocol messages addressed to the sender:
// a cumulative CtlAck trims the replay window. It returns true when
// the message was consumed and false when it belongs to the caller
// (flush/stop/start control traffic).
func (s *Session) Deliver(m tp.Message) bool {
	if m.Type != tp.MsgControl || m.Control != tp.CtlAck {
		return false
	}
	s.mu.Lock()
	if m.Arg > s.acked {
		s.acked = m.Arg
	}
	for s.low <= s.acked && s.pendingLocked() > 0 {
		s.popLocked()
	}
	s.mu.Unlock()
	return true
}

// Recv implements tp.Conn, filtering session-protocol messages out of
// the inbound stream so callers only see their own control traffic.
func (s *Session) Recv() (tp.Message, error) {
	for {
		m, err := s.conn.Recv()
		if err != nil {
			return m, err
		}
		if !s.Deliver(m) {
			return m, nil
		}
	}
}

// Close implements tp.Conn.
func (s *Session) Close() error { return s.conn.Close() }

// Heartbeat sends a liveness beacon; the receiver uses its arrival
// time to decide node degradation.
func (s *Session) Heartbeat() error {
	return s.conn.Send(tp.ControlMessage(s.node, tp.CtlHeartbeat, 0))
}

// Resend retransmits the unacked window in sequence order on the
// current connection. Safe at any time — the receiver deduplicates —
// it is the recovery step for batches lost to silent faults that never
// broke the connection (and so never triggered the reconnect replay).
func (s *Session) Resend() error {
	s.mu.Lock()
	first, batches := s.snapshotLocked(s.low)
	s.mu.Unlock()
	return s.replay(s.conn, first, batches)
}

// Pending returns the number of unacked batches in the replay window.
func (s *Session) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingLocked()
}

// Acked returns the highest cumulative ack seen.
func (s *Session) Acked() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Spilled returns the number of batches demoted to the spill path.
func (s *Session) Spilled() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// LostBatches returns batches demoted with no spill target available.
func (s *Session) LostBatches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost
}

// WaitAcked blocks until the replay window is empty or the timeout
// expires, reporting whether everything was acknowledged. Callers must
// keep a Recv loop (or Deliver calls) running for acks to arrive.
func (s *Session) WaitAcked(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s.Pending() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
