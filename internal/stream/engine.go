// Package stream is the multiplexed reliable-stream engine layered
// over a punched (or relayed) session's datagrams: QUIC-style streams
// with explicit IDs and byte offsets, selective-repeat ARQ driven by
// the out-of-order ranges every ack reports (an RFC 6298
// RTT-estimated retransmission timer is the fallback), per-stream and
// per-session flow-control windows, and in-order reassembly on the
// 32-bit circular offset space shared with internal/tcp.
//
// Like the rest of the engine tier, the package is single-threaded
// and lock-free: every entry point runs inside the transport's
// serialized dispatch context (the facade enters via
// Transport.Invoke), timers come from Transport.After, and the clock
// is Transport.Now — so simulated runs are deterministic in virtual
// time. The blocking net.Conn-shaped surface lives in the public
// natpunch/stream package.
//
// Frames ride the session's existing datagram path (the facade
// Conn's Write/deliver seam), so a live relay→direct migration or a
// §3.6 failback moves every stream with the session: retransmission
// state is keyed by stream offset, never by path, and a cutover is
// invisible to the ARQ beyond a step in the RTT estimate.
package stream

import (
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"natpunch/internal/proto"
	"natpunch/transport"
)

// Engine errors.
var (
	// ErrResetByPeer is the terminal error of a stream the peer reset.
	ErrResetByPeer = errors.New("stream: reset by peer")
	// ErrReset is the terminal error of a locally reset stream.
	ErrReset = errors.New("stream: reset")
	// ErrSessionClosed is returned by operations on a closed Mux.
	ErrSessionClosed = errors.New("stream: session closed")
)

// Config tunes a Mux. Both endpoints of a session must use the same
// window configuration: there is no handshake, so each side assumes
// the peer's initial credit equals its own.
type Config struct {
	// StreamWindow is the per-stream receive window in bytes
	// (default 256 KiB): how far past the application's read point a
	// peer may send on one stream.
	StreamWindow uint32
	// SessionWindow is the session-wide receive budget in bytes
	// (default 1 MiB), bounding in-order bytes accepted across all
	// streams ahead of application reads.
	SessionWindow uint32
	// MaxDatagram bounds one packed frame datagram (default 1152
	// bytes), keeping session datagrams under a conservative path MTU
	// once the outer envelope is added.
	MaxDatagram int
	// InitialRTO seeds the retransmission timeout before the first
	// RTT sample (default 500ms).
	InitialRTO time.Duration
	// MinRTO/MaxRTO clamp the timeout (defaults 100ms / 10s).
	MinRTO, MaxRTO time.Duration
}

func (c Config) withDefaults() Config {
	if c.StreamWindow == 0 {
		c.StreamWindow = 256 << 10
	}
	if c.SessionWindow == 0 {
		c.SessionWindow = 1 << 20
	}
	if c.MaxDatagram == 0 {
		c.MaxDatagram = 1152
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = 500 * time.Millisecond
	}
	if c.MinRTO == 0 {
		c.MinRTO = 100 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 10 * time.Second
	}
	return c
}

// Callbacks observe engine events. All fire in the engine's dispatch
// context and must not block; they may take facade locks to wake
// blocked application goroutines (the same contract as the punch
// engine's callbacks).
type Callbacks struct {
	// Accept fires once per peer-initiated stream.
	Accept func(s *Stream)
	// Readable fires when a stream gained readable data, reached EOF,
	// or terminated.
	Readable func(s *Stream)
	// Writable fires when a stream's write budget may have grown or
	// the stream terminated.
	Writable func(s *Stream)
	// Closed fires once when a stream terminates: err is nil for a
	// clean bidirectional close, ErrResetByPeer/ErrReset for resets,
	// or the session failure.
	Closed func(s *Stream, err error)
	// Pong fires when a ping reply returns, with the measured RTT.
	Pong func(token uint32, rtt time.Duration)
}

// Mux multiplexes reliable streams over one session's datagrams.
// All methods run in the engine dispatch context.
type Mux struct {
	tr transport.Transport
	// begin returns the buffer the next datagram is packed into, behind
	// whatever it already holds; end sends it. See NewMuxInPlace.
	begin func() []byte
	end   func(p []byte) error
	cfg   Config
	cb    Callbacks

	streams map[uint64]*Stream
	order   []uint64 // sorted live stream IDs: deterministic iteration
	rr      int      // round-robin cursor into order
	nextID  uint64   // next locally initiated stream ID
	maxPeer uint64   // highest peer-initiated stream ID seen (0 = none)
	peerLSB uint64   // parity of peer-initiated IDs

	// resets remembers streams that ended by reset, not cleanly, so
	// stale peer traffic draws a fresh reset and late final sizes
	// still settle session flow control. Bounded FIFO (resetOrder):
	// evicting a record forfeits at most one stream's pending
	// settlement, it never corrupts live accounting.
	resets     map[uint64]*resetRec
	resetOrder []uint64

	parser Parser
	rtt    rttEstimator

	pendingCtl []Frame // control frames staged for the next flush

	rtxTimer transport.Timer
	rtxAt    time.Duration
	timeouts int // stream deadlines the timer found expired: go-back-N resends and window probes

	// Ack policy (see handleData and flush): an owed ack that nobody is
	// waiting for is held until a datagram leaves anyway or ackTimer,
	// armed ackDelay ahead by the first flush that held one, fires.
	// ackNow says a frame arrived whose ack may not wait.
	ackDelay time.Duration
	ackTimer transport.Timer
	ackNow   bool

	// Session flow control: cumulative byte totals on the circular
	// space. The send side counts first transmissions only; the
	// receive side advertises consumed + SessionWindow.
	sndSessNxt   uint32
	sndSessLimit uint32
	rcvSessUsed  uint32 // consumed by the application (or discarded)
	rcvSessLimit uint32 // last advertised session budget
	rcvInUse     int    // bytes buffered across all streams (rcv + ooo)
	sessWinPend  bool

	pingNext uint32
	pings    []pingProbe

	// Receive-path flushes wait for the end of the transport's entry
	// when it has one (transport.Deferrer; see flushSoon): entryEnd is
	// nil when it has not, flushAtEnd is the function deferred, built
	// once, and flushDue says it is registered for the running entry.
	entryEnd   transport.Deferrer
	flushAtEnd func()
	flushDue   bool

	ranges []byte    // ack-range encodings of the flush in progress
	frames []Frame   // frame list scratch, reused per flush
	acking []*Stream // streams whose ack is in the flush's frame list
	ids    []uint64  // snapshot of order for loops that call out; see liveIDs
	spare  []byte    // the one idle byteQueue array the session keeps
	closed bool
}

type pingProbe struct {
	token uint32
	at    time.Duration
}

// resetRec is the per-released-stream state kept after a reset so
// session flow-control accounting converges even when reset frames
// (which travel unreliably) cross or get lost.
type resetRec struct {
	final    uint32 // our send-direction final size, echoed in re-answers
	settled  uint32 // receive-direction offset already charged to rcvSessUsed
	rcvLimit uint32 // last advertised stream limit: clamp for peer-claimed finals
}

const (
	// maxResetRecords bounds m.resets on sessions with many resets.
	maxResetRecords = 128
	// maxPings bounds outstanding ping probes under pathological loss.
	maxPings = 256
	// maxAckRanges bounds the out-of-order ranges one ack reports.
	maxAckRanges = 8
	// lossThreshold is how many full segments the peer must report
	// above a hole before the hole counts as lost rather than late.
	lossThreshold = 3
	// ackEvery is how many full segments may arrive in order on a stream
	// before their ack may no longer wait for company.
	ackEvery = 2
	// maxAckDelay is the longest an owed ack is held. A mux uses less
	// when its MinRTO is short: never more than a quarter of it, so an
	// RTT sample taken from a timer-sent ack cannot lift the RTO off its
	// floor and a held ack is never mistaken for a lost segment.
	maxAckDelay = 5 * time.Millisecond
)

// NewMux creates the stream engine over a session. send transmits one
// datagram on the session (engine context; the payload may be reused
// after it returns, and send failures are treated as loss — the ARQ
// recovers or the facade calls Fail when the session dies). even
// selects this endpoint's stream-ID parity: exactly one endpoint of a
// session must pass true, which the facade derives from the peers'
// rendezvous names.
func NewMux(tr transport.Transport, send func(p []byte) error, even bool, cfg Config, cb Callbacks) *Mux {
	var scratch []byte // one datagram, packed here and handed to send
	return NewMuxInPlace(tr,
		func() []byte { return scratch[:0] },
		func(p []byte) error {
			scratch = p // keep what the appends grew
			return send(p)
		}, even, cfg, cb)
}

// NewMuxInPlace is NewMux for a session that lets its datagrams be
// built where they are sent from: begin returns a buffer, the engine
// appends one datagram's packed frames behind whatever begin left in
// it (the session's envelope) and hands the result to end, which sends
// it; end's failures are treated as loss, like send's. Every begin is
// followed by its end before the engine sends anything else, and the
// buffer is not touched after it.
func NewMuxInPlace(tr transport.Transport, begin func() []byte, end func(p []byte) error, even bool, cfg Config, cb Callbacks) *Mux {
	m := &Mux{
		tr: tr, begin: begin, end: end, cfg: cfg.withDefaults(), cb: cb,
		streams: make(map[uint64]*Stream),
		resets:  make(map[uint64]*resetRec),
	}
	if even {
		m.nextID, m.peerLSB = 2, 1
	} else {
		m.nextID, m.peerLSB = 1, 0
	}
	m.rtt = rttEstimator{initial: m.cfg.InitialRTO, min: m.cfg.MinRTO, max: m.cfg.MaxRTO}
	m.ackDelay = min(maxAckDelay, m.cfg.MinRTO/4)
	m.sndSessLimit = m.cfg.SessionWindow
	m.rcvSessLimit = m.cfg.SessionWindow
	if d, ok := tr.(transport.Deferrer); ok {
		m.entryEnd = d
		m.flushAtEnd = func() {
			m.flushDue = false
			m.flush() // a mux closed or failed since is a no-op there
		}
	}
	return m
}

// RTT returns the smoothed round-trip estimate (zero before the
// first sample).
func (m *Mux) RTT() time.Duration { return m.rtt.RTT() }

// Open creates a locally initiated stream. The peer learns of it
// from its first frame.
func (m *Mux) Open() (*Stream, error) {
	if m.closed {
		return nil, ErrSessionClosed
	}
	s := m.newStream(m.nextID)
	m.nextID += 2
	return s, nil
}

// Ping sends a session liveness/RTT probe and returns its token; the
// Pong callback fires when the reply returns. Probes are not
// retransmitted: a lost ping simply never pongs.
func (m *Mux) Ping() (uint32, error) {
	if m.closed {
		return 0, ErrSessionClosed
	}
	m.pingNext++
	tok := m.pingNext
	// Probes are fire-and-forget, so a lost ping's entry would sit
	// here forever: expire anything old enough that its pong can no
	// longer plausibly arrive, and cap the list outright.
	now := m.tr.Now()
	cutoff := now - 4*m.rtt.RTO()
	live := m.pings[:0]
	for _, pr := range m.pings {
		if pr.at > cutoff {
			live = append(live, pr)
		}
	}
	m.pings = live
	for len(m.pings) >= maxPings {
		m.pings = m.pings[1:]
	}
	m.pings = append(m.pings, pingProbe{token: tok, at: now})
	m.queueControl(Frame{Type: proto.TypeStreamPing, Off: tok})
	m.flush()
	return tok, nil
}

// Close tears the mux down locally: every live stream terminates
// with ErrSessionClosed (after a best-effort reset frame to the
// peer) and the retransmission timer stops.
func (m *Mux) Close() { m.shutdown(ErrSessionClosed, true) }

// Fail terminates the mux because the underlying session died:
// every live stream terminates with err, and nothing more is sent.
func (m *Mux) Fail(err error) { m.shutdown(err, false) }

func (m *Mux) shutdown(err error, sendResets bool) {
	if m.closed {
		return
	}
	if sendResets {
		var frames []Frame
		for _, id := range m.order {
			frames = append(frames, Frame{
				Type: proto.TypeStreamReset, Stream: id, Off: m.streams[id].sndMax,
			})
		}
		m.transmit(frames)
	}
	m.closed = true
	if m.rtxTimer != nil {
		m.rtxTimer.Stop()
		m.rtxTimer = nil
	}
	if m.ackTimer != nil {
		m.ackTimer.Stop()
		m.ackTimer = nil
	}
	for _, id := range m.liveIDs() {
		if s := m.streams[id]; s != nil {
			m.terminate(s, err)
		}
	}
}

// liveIDs copies order into the mux's one scratch for it, for a loop
// whose body calls out: a callback may open or release streams, which
// moves order under the loop. Both users (shutdown, wakeWriters) look
// each ID up again and skip what is gone, which also covers the one
// way they nest — a Writable callback that closes the mux.
func (m *Mux) liveIDs() []uint64 {
	m.ids = append(m.ids[:0], m.order...)
	return m.ids
}

// HandleDatagram processes one received session datagram (engine
// context; p is valid only during the call). Malformed datagrams are
// dropped from the bad frame on — the sender's ARQ recovers anything
// useful.
func (m *Mux) HandleDatagram(p []byte) {
	if m.closed {
		return
	}
	_ = m.parser.Parse(p, func(f Frame) error {
		m.handleFrame(f)
		return nil
	})
	m.flushSoon()
}

// flushSoon is the receive path's flush, and the one place that chooses
// between now and later. A transport that delivers datagrams a batch at
// a time (transport.Deferrer) gets one flush when the batch is done:
// one ack per stream carrying the cumulative offset and the ranges the
// whole run left, where a flush per datagram sends an ack per datagram
// — and the peer, in turn, one advancing ack to process per run. On any
// other transport this is flush. Everything the application or a timer
// starts (Write, Read, CloseWrite, Reset, DiscardReads, Ping, the
// retransmission timer) calls flush itself: those are one flush per
// entry already, and their callers count on the frames being queued
// when the call returns.
func (m *Mux) flushSoon() {
	switch {
	case m.entryEnd == nil:
		m.flush()
	case !m.flushDue:
		m.flushDue = true
		m.entryEnd.Defer(m.flushAtEnd)
	}
}

// handleFrame dispatches one frame.
func (m *Mux) handleFrame(f Frame) {
	if f.Stream == 0 {
		m.handleSession(f)
		return
	}
	s := m.streams[f.Stream]
	if s == nil {
		s = m.admit(f)
		if s == nil {
			return
		}
	}
	switch f.Type {
	case proto.TypeStream:
		s.handleData(f)
	case proto.TypeStreamAck:
		s.handleAck(f)
	case proto.TypeStreamWindow:
		s.handleWindow(f)
	case proto.TypeStreamReset:
		// The frame carries the peer's final size: how much session
		// send-window it charged for this stream. Raising rcvHi to it
		// lets terminate settle our receive-side accounting exactly,
		// including bytes still in flight that will never arrive.
		// Echo our own final (once — the stream is released below, and
		// resets for released streams draw no reply) so the peer can
		// settle its receive side too.
		if fin := clampFinal(f.Off, s.rcvLimit); SeqGT(fin, s.rcvHi) {
			s.rcvHi = fin
		}
		m.queueControl(Frame{Type: proto.TypeStreamReset, Stream: s.id, Off: s.sndMax})
		m.terminate(s, ErrResetByPeer)
	}
}

// clampFinal bounds a peer-claimed final size by the stream credit we
// actually advertised: a conforming peer can never have charged more,
// and a lying one must not inflate our session accounting.
func clampFinal(final, limit uint32) uint32 {
	if SeqGT(final, limit) {
		return limit
	}
	return final
}

// handleSession processes session-scoped (stream ID 0) frames.
func (m *Mux) handleSession(f Frame) {
	switch f.Type {
	case proto.TypeStreamPing:
		if !f.FIN {
			m.queueControl(Frame{Type: proto.TypeStreamPing, Off: f.Off, FIN: true})
			return
		}
		now := m.tr.Now()
		for i, pr := range m.pings {
			if pr.token == f.Off {
				m.pings = append(m.pings[:i], m.pings[i+1:]...)
				rtt := now - pr.at
				m.rtt.Sample(rtt)
				if m.cb.Pong != nil {
					m.cb.Pong(f.Off, rtt)
				}
				return
			}
		}
	case proto.TypeStreamWindow:
		if SeqGT(f.Off, m.sndSessLimit) {
			m.sndSessLimit = f.Off
			m.clearProbeDeadlines()
			m.wakeWriters()
		}
	}
}

// admit resolves a frame for an unknown stream ID: a fresh
// peer-initiated ID opens it (and any intermediate IDs whose first
// frames are still in flight, so out-of-order arrival cannot orphan
// them); anything else is stale traffic for a released stream, which
// is answered with a reset so a peer retransmitting into the void
// converges.
func (m *Mux) admit(f Frame) *Stream {
	if f.Stream&1 == m.peerLSB && f.Stream > m.maxPeer {
		first := m.maxPeer + 2
		if m.maxPeer == 0 {
			first = m.peerLSB
			if first == 0 {
				first = 2
			}
		}
		var s *Stream
		for id := first; id <= f.Stream; id += 2 {
			s = m.newStream(id)
			m.maxPeer = id
			if m.cb.Accept != nil {
				m.cb.Accept(s)
			}
		}
		return s
	}
	// Stale: the stream terminated and was released. If it ended by
	// reset, any live frame means the peer missed our reset (resets
	// travel unreliably): answer with a fresh one carrying our final
	// size, and settle late-arriving peer finals against the record.
	// A reset frame itself never draws a reply — two released sides
	// echoing each other would loop forever. If the stream completed
	// cleanly, every byte was received and consumed before release —
	// so answer data with the final cumulative ack the peer evidently
	// missed, letting its ARQ finish cleanly instead of erroring a
	// finished transfer.
	rec := m.resets[f.Stream]
	if f.Type == proto.TypeStreamReset {
		if rec != nil {
			m.settleReset(rec, f.Off)
		}
		return nil
	}
	if rec != nil {
		m.queueControl(Frame{Type: proto.TypeStreamReset, Stream: f.Stream, Off: rec.final})
		return nil
	}
	if f.Type != proto.TypeStream {
		return nil
	}
	m.queueControl(Frame{
		Type: proto.TypeStreamAck, Stream: f.Stream,
		Off: f.Off + uint32(len(f.Data)), FIN: f.FIN,
	})
	return nil
}

// settleReset applies a peer-claimed final size to a released reset
// stream's session accounting, charging only what the record has not
// already settled — duplicates are idempotent.
func (m *Mux) settleReset(rec *resetRec, final uint32) {
	final = clampFinal(final, rec.rcvLimit)
	if d := SeqDiff(final, rec.settled); d > 0 {
		m.rcvSessUsed += uint32(d)
		rec.settled = final
		m.maybeAdvertiseSession()
	}
}

// recordReset remembers a reset stream's settlement state, evicting
// the oldest record beyond the cap.
func (m *Mux) recordReset(id uint64, rec resetRec) {
	if m.resets[id] != nil {
		return
	}
	for len(m.resetOrder) >= maxResetRecords {
		delete(m.resets, m.resetOrder[0])
		m.resetOrder = m.resetOrder[1:]
	}
	m.resets[id] = &rec
	m.resetOrder = append(m.resetOrder, id)
}

// newStream registers a stream with initial windows.
func (m *Mux) newStream(id uint64) *Stream {
	s := &Stream{
		m: m, id: id,
		snd:      byteQueue{spare: &m.spare},
		rcv:      byteQueue{spare: &m.spare},
		sndLimit: m.cfg.StreamWindow,
		rcvLimit: m.cfg.StreamWindow,
		rto:      m.rtt.RTO(),
	}
	m.streams[id] = s
	at := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= id })
	m.order = append(m.order, 0)
	copy(m.order[at+1:], m.order[at:])
	m.order[at] = id
	return s
}

// release drops a terminated stream from the mux.
func (m *Mux) release(s *Stream) {
	delete(m.streams, s.id)
	for i, id := range m.order {
		if id == s.id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			if m.rr > i {
				m.rr--
			}
			break
		}
	}
}

// terminate ends a stream abruptly (reset, session close/failure)
// or cleanly (err == nil after both directions completed).
func (m *Mux) terminate(s *Stream, err error) {
	if s.done {
		return
	}
	s.done = true
	s.closedErr = err
	m.rcvInUse -= s.rcv.Len() + s.oooBytes()
	if err != nil {
		// Settle receive-side session flow control: the peer charged
		// its session send-window up to its final size — at least
		// every byte we saw (rcvHi), exactly its sndMax once a reset
		// frame delivered it. Without this, bytes buffered or in
		// flight to a reset stream would never reach rcvSessUsed and
		// the peer's session window would shrink permanently. The
		// record lets a late final (our reset crossed the peer's
		// traffic) top up the remainder. Residual: if we reset
		// locally and the peer's echoed final is lost with no further
		// traffic on the stream, in-flight bytes we never saw stay
		// uncharged — bounded by one stream window, recovered by any
		// later frame the peer sends for the stream.
		settled := s.rcvUsed
		if d := SeqDiff(s.rcvHi, s.rcvUsed); d > 0 {
			m.rcvSessUsed += uint32(d)
			settled = s.rcvHi
			m.maybeAdvertiseSession()
		}
		m.recordReset(s.id, resetRec{final: s.sndMax, settled: settled, rcvLimit: s.rcvLimit})
	} else if s.ackPending {
		// Completed with an ack still owed (a data-less FIN that found
		// everything read and our own FIN acked, or a stream in discard
		// mode finishing inside a run): the stream is released below and
		// no flush can speak for it any more, so its last word — every
		// byte and the FIN — leaves as a control frame. Without it the
		// peer's FIN waits out an RTO.
		m.queueControl(Frame{Type: proto.TypeStreamAck, Stream: s.id, Off: s.rcvNxt, FIN: true})
	}
	s.snd.Release()
	s.rcv.Release()
	s.ooo, s.sacked = nil, nil
	s.rtxAt = 0
	m.release(s)
	if m.cb.Readable != nil {
		m.cb.Readable(s)
	}
	if m.cb.Writable != nil {
		m.cb.Writable(s)
	}
	if m.cb.Closed != nil {
		m.cb.Closed(s, err)
	}
}

// wakeWriters fires Writable for every stream: session window growth
// is not attributable to one stream.
func (m *Mux) wakeWriters() {
	if m.cb.Writable == nil {
		return
	}
	for _, id := range m.liveIDs() {
		if s := m.streams[id]; s != nil {
			m.cb.Writable(s)
		}
	}
}

// clearProbeDeadlines drops window-probe deadlines (streams with no
// data in flight) after session credit arrived, so the next flush
// re-arms from the data path instead of a stale probe schedule.
func (m *Mux) clearProbeDeadlines() {
	for _, id := range m.order {
		if s := m.streams[id]; !s.inFlight() {
			s.rtxAt = 0
		}
	}
}

// --- transmission ---

// queueControl stages a control frame for the next flush. Control
// frames are tiny and sent ahead of data.
func (m *Mux) queueControl(f Frame) { m.pendingCtl = append(m.pendingCtl, f) }

// flush drains everything sendable: staged control frames, per-stream
// acks and window updates, the holes each stream's scoreboard proves
// lost, then data round-robin across streams with budget. Frames pack
// into MaxDatagram-bounded datagrams. Finally the retransmission timer
// is re-armed to the earliest deadline, including window-probe
// deadlines for streams starved of credit.
func (m *Mux) flush() {
	if m.closed {
		return
	}
	frames := append(m.frames[:0], m.pendingCtl...)
	m.pendingCtl = m.pendingCtl[:0]
	m.ranges = m.ranges[:0]
	// Per-stream control: acks and window advertisements. The ack FIN
	// bit — "your FIN is fully delivered" — requires every byte up to
	// the FIN offset, not just the FIN frame itself: the sender
	// treats it as license to forget its retransmission buffer. Lost
	// holes ride along, ahead of all fresh data: they are what the
	// peer's reader is blocked on.
	maxSeg := m.cfg.MaxDatagram - frameOverhead
	acking := m.acking[:0]
	for _, id := range m.order {
		s := m.streams[id]
		if s.ackPending {
			acking = append(acking, s)
			frames = append(frames, Frame{
				Type: proto.TypeStreamAck, Stream: s.id,
				Off: s.rcvNxt, FIN: s.finRcvd && s.rcvNxt == s.finRcvOff,
				Data: s.ackRanges(),
			})
		}
		if s.winPending {
			s.winPending = false
			s.rcvLimit = s.advertisable()
			frames = append(frames, Frame{
				Type: proto.TypeStreamWindow, Stream: s.id, Off: s.rcvLimit,
			})
		}
		frames = s.appendLost(frames, maxSeg)
	}
	if m.sessWinPend {
		m.sessWinPend = false
		m.rcvSessLimit = m.rcvSessUsed + m.cfg.SessionWindow
		frames = append(frames, Frame{
			Type: proto.TypeStreamWindow, Stream: 0, Off: m.rcvSessLimit,
		})
	}
	// Data: round-robin one segment per stream per round, starting at
	// the cursor, until nothing can send.
	for len(m.order) > 0 {
		sent := false
		n := len(m.order)
		for i := 0; i < n; i++ {
			s := m.streams[m.order[(m.rr+i)%n]]
			if f, ok := s.nextSegment(maxSeg); ok {
				frames = append(frames, f)
				sent = true
			}
		}
		m.rr = (m.rr + 1) % n
		if !sent {
			break
		}
	}
	// Streams with bytes they could not send — buffered here, or held
	// back by the facade because WriteBudget hit zero (wantWrite) —
	// are blocked on flow control: arm a window-probe deadline so a
	// lost window update cannot deadlock the sender.
	now := m.tr.Now()
	for _, id := range m.order {
		s := m.streams[id]
		if s.rtxAt == 0 && !s.inFlight() &&
			(s.pendingBytes() > 0 || (s.wantWrite && s.WriteBudget() == 0)) {
			s.rtxAt = now + s.rto
		}
	}
	// The ack policy, decided on the finished list. Acks that nobody is
	// waiting for and that would leave alone are held: the streams keep
	// ackPending and the ack timer bounds the wait. Anything else in the
	// list — a control frame, a window update, a retransmission, data —
	// is a datagram leaving anyway, and the owed acks ride in front of it:
	// a response carries the ack of its request.
	if len(frames) == len(acking) && !m.ackNow {
		if len(acking) > 0 && m.ackTimer == nil {
			m.ackTimer = m.tr.After(m.ackDelay, m.onAckTimer)
		}
		frames = frames[:0]
	} else {
		for _, s := range acking {
			s.ackPending, s.ackOwed = false, 0
		}
	}
	m.ackNow = false
	clear(acking)
	m.acking = acking[:0]
	m.transmit(frames)
	clear(frames) // drop the aliases of queue arrays since replaced
	m.frames = frames[:0]
	m.armRtx()
}

// onAckTimer sends what is still owed ackDelay after a flush held an
// ack. The timer is not stopped when the acks it was armed for ride out
// early: it fires, finds nothing owed and sends nothing, so a steady
// exchange arms one timer per ackDelay, not one per message.
func (m *Mux) onAckTimer() {
	m.ackTimer = nil
	m.ackNow = true
	m.flush()
}

// transmit packs frames into datagrams and sends them: each frame is
// encoded once, where its datagram is sent from. A frame that would
// take a datagram past MaxDatagram opens the next one; a datagram's
// first frame is taken whatever its size.
func (m *Mux) transmit(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	buf := m.begin()
	start := len(buf)
	for i := range frames {
		f := &frames[i]
		if packed := len(buf) - start; packed > 0 && packed+frameOverhead+len(f.Data) > m.cfg.MaxDatagram {
			_ = m.end(buf) // lossy by contract; the ARQ recovers
			buf = m.begin()
			start = len(buf)
		}
		buf = AppendFrame(buf, f)
	}
	_ = m.end(buf)
}

// armRtx (re)arms the single retransmission timer to the earliest
// per-stream deadline, or stops it when nothing is pending.
func (m *Mux) armRtx() {
	var at time.Duration
	for _, id := range m.order {
		s := m.streams[id]
		if s.rtxAt != 0 && (at == 0 || s.rtxAt < at) {
			at = s.rtxAt
		}
	}
	if at == 0 {
		if m.rtxTimer != nil {
			m.rtxTimer.Stop()
			m.rtxTimer = nil
		}
		m.rtxAt = 0
		return
	}
	// A timer due no later than the deadline stays: every advancing ack
	// moves the deadline out, and a timer that fires early finds no
	// stream due, sends nothing and lands here again through its flush.
	if m.rtxTimer != nil && m.rtxAt <= at && m.rtxTimer.Active() {
		return
	}
	if m.rtxTimer != nil {
		m.rtxTimer.Stop()
	}
	m.rtxAt = at
	d := at - m.tr.Now()
	if d < 0 {
		d = 0
	}
	m.rtxTimer = m.tr.After(d, m.onRtxTimer)
}

// onRtxTimer fires expired per-stream deadlines: the last resort when
// acks stopped saying anything useful. Streams with data in flight go
// back N — sndNxt rewinds to sndUna with exponential RTO backoff, the
// scoreboard is forgotten (RFC 2018 §8: the peer may have reported
// everything and released the stream, so only a resend draws its
// answer), and any outstanding RTT sample is invalidated (Karn's
// algorithm). Streams starved of credit send an empty window-probe
// frame at sndNxt, which makes the receiver re-advertise its current
// limits even if they have not changed.
func (m *Mux) onRtxTimer() {
	if m.closed {
		return
	}
	now := m.tr.Now()
	for _, id := range m.order { // nothing below calls out or moves order
		s := m.streams[id]
		if s.rtxAt == 0 || s.rtxAt > now {
			continue
		}
		m.timeouts++
		if s.inFlight() {
			s.sndNxt = s.sndUna
			s.finSent = false
			s.rttValid = false
			s.sacked = s.sacked[:0]
			s.rtxHi = s.sndUna
		} else {
			m.queueControl(Frame{Type: proto.TypeStream, Stream: s.id, Off: s.sndNxt})
		}
		s.rto *= 2
		if s.rto > m.cfg.MaxRTO {
			s.rto = m.cfg.MaxRTO
		}
		s.rtxAt = now + s.rto
	}
	m.rtxTimer = nil
	m.rtxAt = 0
	m.flush()
}

// --- Stream ---

// Stream is one reliable byte stream's engine state. All methods run
// in the engine dispatch context; the blocking wrapper lives in
// natpunch/stream.
type Stream struct {
	m  *Mux
	id uint64

	// Send side: snd holds bytes [sndUna, sndUna+snd.Len()) — unacked
	// and not-yet-sent alike, so a hole the scoreboard proves lost and
	// an RTO's rewind both resend from the one queue.
	snd       byteQueue
	sndUna    uint32 // oldest unacknowledged offset
	sndNxt    uint32 // next offset to transmit
	sndMax    uint32 // highest offset ever transmitted (session budget)
	sndLimit  uint32 // peer-advertised stream flow-control limit
	wantWrite bool   // Write refused bytes for lack of credit

	// Scoreboard: sacked holds the ranges the peer's acks reported
	// beyond the cumulative one — sorted, disjoint, never touching,
	// within [sndUna, sndNxt]; the gaps between them are the holes.
	// Holes below rtxHi were retransmitted when sndMax stood at
	// rtxMark, so a report of anything sent later while one is still
	// open means that retransmission was lost too.
	sacked  []span
	rtxHi   uint32
	rtxMark uint32

	finQueued bool
	finSent   bool
	finAcked  bool
	finOff    uint32 // offset after the final byte (valid once queued)

	rtxAt    time.Duration // retransmission/probe deadline (0 = unarmed)
	rto      time.Duration // current, possibly backed-off, timeout
	rttOff   uint32        // sample completes when acked to here
	rttAt    time.Duration
	rttValid bool

	// Receive side: rcv holds in-order bytes awaiting the application;
	// ooo holds out-of-order segments sorted by offset.
	rcv        byteQueue
	rcvNxt     uint32 // next expected offset
	rcvUsed    uint32 // offset consumed (or discarded) locally
	rcvHi      uint32 // highest received end / peer-claimed final (≤ rcvLimit)
	rcvLimit   uint32 // last advertised stream window limit
	ooo        []ooseg
	finRcvd    bool
	finRcvOff  uint32
	discard    bool // facade closed: drop (but ack) further data
	ackPending bool
	ackOwed    int // bytes accepted in order since the last ack left
	winPending bool

	closedErr error
	done      bool
}

type ooseg struct {
	off  uint32
	data []byte
}

// span is the half-open offset range [start, end).
type span struct{ start, end uint32 }

// ID returns the stream's wire ID.
func (s *Stream) ID() uint64 { return s.id }

// Err returns the stream's terminal error: nil while live or after a
// clean close, otherwise the reset/session error.
func (s *Stream) Err() error { return s.closedErr }

// Done reports whether the stream has fully terminated.
func (s *Stream) Done() bool { return s.done }

// inFlight reports whether unacknowledged data (or FIN) needs the
// retransmission timer.
func (s *Stream) inFlight() bool {
	return !s.done && (SeqGT(s.sndNxt, s.sndUna) || (s.finSent && !s.finAcked))
}

// pendingBytes counts buffered bytes not yet transmitted.
func (s *Stream) pendingBytes() int32 {
	return SeqDiff(s.sndUna+uint32(s.snd.Len()), s.sndNxt)
}

// WriteBudget reports how many bytes Write would accept now: the
// peer's stream credit beyond what is already buffered.
func (s *Stream) WriteBudget() int {
	if s.done || s.finQueued {
		return 0
	}
	b := SeqDiff(s.sndLimit, s.sndUna) - int32(s.snd.Len())
	if b < 0 {
		return 0
	}
	return int(b)
}

// Write buffers as much of p as the stream's write budget allows and
// starts transmission, returning the count accepted (possibly 0, in
// which case the caller blocks until Writable).
func (s *Stream) Write(p []byte) int {
	if s.done || s.finQueued {
		return 0
	}
	n := min(len(p), s.WriteBudget())
	if n == 0 {
		if len(p) > 0 {
			// The caller has bytes but no credit and nothing of theirs
			// is buffered here, so pendingBytes cannot trigger window
			// probing on its own: record the intent and flush so the
			// blocked-stream scan arms a probe deadline.
			s.wantWrite = true
			s.m.flush()
		}
		return 0
	}
	s.wantWrite = false
	s.snd.Append(p[:n])
	s.m.flush()
	return n
}

// CloseWrite queues FIN after everything buffered: the half-close.
func (s *Stream) CloseWrite() {
	if s.done || s.finQueued {
		return
	}
	s.finQueued = true
	s.finOff = s.sndUna + uint32(s.snd.Len())
	s.m.flush()
}

// Reset terminates the stream abruptly in both directions, telling
// the peer with a (fire-and-forget) reset frame.
func (s *Stream) Reset() {
	if s.done {
		return
	}
	m := s.m
	m.queueControl(Frame{Type: proto.TypeStreamReset, Stream: s.id, Off: s.sndMax})
	m.terminate(s, ErrReset)
	m.flush()
}

// DiscardReads marks the facade side closed for reading: buffered
// and future in-order data is dropped (still acknowledged, so the
// peer's ARQ completes) and the window stays open.
func (s *Stream) DiscardReads() {
	if s.done {
		return
	}
	s.discard = true
	n := s.rcv.Len()
	s.rcvUsed += uint32(n)
	s.m.rcvSessUsed += uint32(n)
	s.m.rcvInUse -= n
	s.rcv.Release()
	s.maybeAdvertise(false)
	s.m.maybeAdvertiseSession()
	s.maybeComplete()
	// Flush here: the facade calls DiscardReads last in Close, so the
	// credit freed above must not wait for the next engine event — a
	// window-blocked peer would stall until its probe RTO otherwise.
	s.m.flush()
}

// oooBytes totals the buffered out-of-order segment payloads.
func (s *Stream) oooBytes() int {
	n := 0
	for _, seg := range s.ooo {
		n += len(seg.data)
	}
	return n
}

// ReadReady reports the readable byte count and whether EOF has been
// reached (all data up to the peer's FIN consumed).
func (s *Stream) ReadReady() (int, bool) {
	eof := s.finRcvd && s.rcvNxt == s.finRcvOff && s.rcv.Len() == 0
	return s.rcv.Len(), eof
}

// Read copies buffered in-order bytes into p, advancing the consumed
// point and re-advertising windows as they open. eof reports that the
// stream's final byte has been consumed.
func (s *Stream) Read(p []byte) (n int, eof bool) {
	n = copy(p, s.rcv.Bytes(0, s.rcv.Len()))
	if n > 0 {
		s.rcv.Consume(n)
		s.rcvUsed += uint32(n)
		s.m.rcvSessUsed += uint32(n)
		s.m.rcvInUse -= n
		s.maybeAdvertise(false)
		s.m.maybeAdvertiseSession()
		s.maybeComplete() // before the flush: a completing stream hands it its last ack
		s.m.flush()
	}
	_, eof = s.ReadReady()
	return n, eof
}

// advertisable computes the stream window limit worth advertising.
func (s *Stream) advertisable() uint32 { return s.rcvUsed + s.m.cfg.StreamWindow }

// maybeAdvertise queues a window update. Unsolicited updates (from
// application reads) use half-window hysteresis; probed updates (the
// peer is starved) always re-send the current limit, so a lost
// window frame cannot deadlock the sender.
func (s *Stream) maybeAdvertise(probed bool) {
	if s.done {
		return
	}
	if probed {
		s.winPending = true
		return
	}
	if growth := SeqDiff(s.advertisable(), s.rcvLimit); growth > 0 &&
		uint32(growth) >= s.m.cfg.StreamWindow/2 {
		s.winPending = true
	}
}

// maybeAdvertiseSession is the session-window analog of
// maybeAdvertise's unsolicited path.
func (m *Mux) maybeAdvertiseSession() {
	if growth := SeqDiff(m.rcvSessUsed+m.cfg.SessionWindow, m.rcvSessLimit); growth > 0 &&
		uint32(growth) >= m.cfg.SessionWindow/2 {
		m.sessWinPend = true
	}
}

// nextSegment produces the stream's next data frame, or false when
// nothing can be sent: no pending bytes, or flow control (stream or
// session) blocks. The returned frame's Data aliases snd, which is
// stable until the flush's sends complete.
func (s *Stream) nextSegment(maxSeg int) (Frame, bool) {
	if s.done {
		return Frame{}, false
	}
	pending := s.pendingBytes()
	finWanted := s.finQueued && !s.finSent
	if pending <= 0 && !finWanted {
		return Frame{}, false
	}
	n := int(pending)
	if n > maxSeg {
		n = maxSeg
	}
	// Stream flow control bounds the segment end.
	if credit := SeqDiff(s.sndLimit, s.sndNxt); int32(n) > credit {
		n = int(max(credit, 0))
	}
	// Session flow control gates fresh bytes only; retransmissions
	// were already counted.
	if end := s.sndNxt + uint32(n); SeqGT(end, s.sndMax) {
		fresh := SeqDiff(end, s.sndMax)
		if avail := SeqDiff(s.m.sndSessLimit, s.m.sndSessNxt); fresh > avail {
			n -= int(fresh - max(avail, 0))
		}
	}
	if n <= 0 && !(finWanted && pending == 0) {
		return Frame{}, false
	}
	off := s.sndNxt
	start := int(SeqDiff(off, s.sndUna))
	data := s.snd.Bytes(start, start+n)
	s.sndNxt += uint32(n)
	if SeqGT(s.sndNxt, s.sndMax) {
		s.m.sndSessNxt += uint32(SeqDiff(s.sndNxt, s.sndMax))
		s.sndMax = s.sndNxt
	}
	fin := false
	if s.finQueued && s.sndNxt == s.finOff {
		fin = true
		s.finSent = true
	}
	// RTT sampling: time this segment if no sample is outstanding and
	// it ends at fresh data — never a retransmission (Karn).
	if !s.rttValid && n > 0 && s.sndNxt == s.sndMax {
		s.rttValid = true
		s.rttOff = s.sndNxt
		s.rttAt = s.m.tr.Now()
	}
	if s.rtxAt == 0 {
		s.rtxAt = s.m.tr.Now() + s.rto
	}
	return Frame{Type: proto.TypeStream, Stream: s.id, Off: off, FIN: fin, Data: data}, true
}

// handleData processes an inbound data frame.
func (s *Stream) handleData(f Frame) {
	if s.done {
		return
	}
	// Every data frame is owed an ack; which of them may not wait for a
	// datagram that is leaving anyway (flush) is decided here and below.
	// Not a frame that repeats, leaves or fills a hole: the peer's
	// scoreboard hears of loss and of repair within a round trip. Not a
	// FIN, and not a window probe (empty, no FIN): the peer is waiting
	// on the answer.
	s.ackPending = true
	if f.Off != s.rcvNxt || len(s.ooo) > 0 || f.FIN || len(f.Data) == 0 {
		s.m.ackNow = true
	}
	end := f.Off + uint32(len(f.Data))
	// Track the highest byte the peer has charged toward session flow
	// control (clamped to the stream credit we advertised): terminate
	// settles session accounting up to this point if the stream resets.
	if hi := clampFinal(end, s.rcvLimit); SeqGT(hi, s.rcvHi) {
		s.rcvHi = hi
	}
	newFin := f.FIN && !s.finRcvd
	if f.FIN {
		s.finRcvd = true
		s.finRcvOff = end
	}
	if len(f.Data) == 0 && !f.FIN {
		// Window probe: re-advertise current limits unconditionally.
		s.maybeAdvertise(true)
		s.m.sessWinPend = true
		return
	}
	if SeqLEQ(end, s.rcvNxt) {
		// Pure duplicate; the re-ack queued above answers it. A FIN
		// first learned here is already deliverable (every byte below
		// it has arrived): wake the reader so a data-less half-close
		// surfaces as EOF instead of stranding a blocked Read.
		if newFin && !s.discard && s.m.cb.Readable != nil {
			s.m.cb.Readable(s)
		}
		s.maybeComplete()
		return
	}
	// Trim the already-received prefix.
	data := f.Data
	off := f.Off
	if SeqLT(off, s.rcvNxt) {
		data = data[SeqDiff(s.rcvNxt, off):]
		off = s.rcvNxt
	}
	// Enforce the advertised window against misbehaving peers:
	// anything beyond the stream limit is dropped (the peer's ARQ
	// retries once credit returns).
	if SeqGT(off+uint32(len(data)), s.rcvLimit) {
		s.m.ackNow = true // trimmed or refused: tell the peer where we stand
		over := SeqDiff(off+uint32(len(data)), s.rcvLimit)
		if int32(len(data)) <= over {
			return
		}
		data = data[:int32(len(data))-over]
	}
	// Session budget, likewise against misbehaving peers: never buffer
	// more than SessionWindow across all streams. A conforming sender
	// cannot hit this — its unconsumed bytes are bounded by our
	// advertised session credit — so trimming only sheds traffic its
	// ARQ retries once reads free space. In-order data on a discard
	// stream is consumed immediately and never buffers, so it is
	// exempt.
	if !s.discard || off != s.rcvNxt {
		if avail := int(s.m.cfg.SessionWindow) - s.m.rcvInUse; len(data) > avail {
			s.m.ackNow = true
			if avail <= 0 {
				return
			}
			data = data[:avail]
		}
	}
	if off == s.rcvNxt {
		s.acceptInOrder(data)
		s.mergeOOO()
	} else {
		s.insertOOO(off, data)
	}
	s.maybeComplete()
}

// acceptInOrder appends in-order payload, accounting both windows,
// and fires Readable.
func (s *Stream) acceptInOrder(data []byte) {
	n := uint32(len(data))
	s.rcvNxt += n
	// The second full segment since the stream's last ack left may not
	// wait: a bulk sender hears from us every other datagram at least.
	s.ackOwed += len(data)
	if s.ackOwed >= ackEvery*(s.m.cfg.MaxDatagram-frameOverhead) {
		s.m.ackNow = true
	}
	if s.discard {
		s.rcvUsed += n
		s.m.rcvSessUsed += n
		s.maybeAdvertise(false)
		s.m.maybeAdvertiseSession()
		return
	}
	s.rcv.Append(data)
	s.m.rcvInUse += len(data)
	// A Readable that reads at once flushes the pending ack mid-merge:
	// what merges after it is news again, or a stream that completes in
	// this very merge is released with its final ack never sent.
	s.ackPending = true
	if s.m.cb.Readable != nil {
		s.m.cb.Readable(s)
	}
}

// insertOOO stores an out-of-order segment (copied; the frame's data
// is decoder-owned), keeping the list sorted by offset. Overlaps are
// tolerated: merge trims against rcvNxt as segments become in-order.
// A bare FIN ahead of its bytes is not stored — handleData recorded
// it — so every segment here is a range an ack can report.
func (s *Stream) insertOOO(off uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	at := sort.Search(len(s.ooo), func(i int) bool { return SeqGEQ(s.ooo[i].off, off) })
	if at < len(s.ooo) && s.ooo[at].off == off && len(s.ooo[at].data) >= len(data) {
		return // duplicate covered by an existing segment
	}
	if at > 0 {
		prev := s.ooo[at-1]
		if SeqGEQ(prev.off+uint32(len(prev.data)), off+uint32(len(data))) {
			return // covered by the preceding segment
		}
	}
	s.m.rcvInUse += len(data)
	seg := ooseg{off: off, data: append([]byte(nil), data...)}
	s.ooo = append(s.ooo, ooseg{})
	copy(s.ooo[at+1:], s.ooo[at:])
	s.ooo[at] = seg
}

// mergeOOO drains out-of-order segments that became contiguous.
func (s *Stream) mergeOOO() {
	for len(s.ooo) > 0 {
		seg := s.ooo[0]
		if SeqGT(seg.off, s.rcvNxt) {
			return
		}
		s.ooo[0] = ooseg{}
		s.ooo = s.ooo[1:]
		if len(s.ooo) == 0 {
			s.ooo = nil
		}
		s.m.rcvInUse -= len(seg.data)
		end := seg.off + uint32(len(seg.data))
		if SeqGT(end, s.rcvNxt) {
			s.acceptInOrder(seg.data[SeqDiff(s.rcvNxt, seg.off):])
		}
	}
}

// ackRanges encodes the lowest maxAckRanges coalesced out-of-order
// ranges as big-endian (start, end) pairs into the mux's per-flush
// scratch, which outlives the flush's frame list. Nothing out of
// order is nil: the lossless ack is the bare cumulative one.
func (s *Stream) ackRanges() []byte {
	if len(s.ooo) == 0 {
		return nil
	}
	m := s.m
	from, n := len(m.ranges), 0
	cur := span{s.ooo[0].off, s.ooo[0].off}
	for _, seg := range s.ooo {
		if SeqGT(seg.off, cur.end) {
			if n++; n == maxAckRanges {
				break
			}
			m.ranges = appendSpan(m.ranges, cur)
			cur = span{seg.off, seg.off}
		}
		if end := seg.off + uint32(len(seg.data)); SeqGT(end, cur.end) {
			cur.end = end
		}
	}
	m.ranges = appendSpan(m.ranges, cur)
	return m.ranges[from:len(m.ranges):len(m.ranges)]
}

func appendSpan(dst []byte, sp span) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(dst, sp.start), sp.end)
}

// handleAck processes an acknowledgment: the cumulative offset, then
// the out-of-order ranges the peer holds beyond it.
func (s *Stream) handleAck(f Frame) {
	if s.done {
		return
	}
	if f.FIN && s.finSent {
		s.finAcked = true
	}
	ack := f.Off
	if SeqGT(ack, s.sndUna) && SeqLEQ(ack, s.sndUna+uint32(s.snd.Len())) {
		// RTT sample before state moves (Karn: untouched sends only).
		if s.rttValid && SeqGEQ(ack, s.rttOff) {
			s.m.rtt.Sample(s.m.tr.Now() - s.rttAt)
			s.rttValid = false
		}
		s.snd.Consume(int(SeqDiff(ack, s.sndUna)))
		s.sndUna = ack
		if SeqLT(s.sndNxt, ack) {
			s.sndNxt = ack
		}
		if SeqLT(s.rtxHi, ack) {
			s.rtxHi = ack
		}
		covered := 0
		for covered < len(s.sacked) && SeqLEQ(s.sacked[covered].end, ack) {
			covered++
		}
		s.sacked = append(s.sacked[:0], s.sacked[covered:]...)
		if len(s.sacked) > 0 && SeqLT(s.sacked[0].start, ack) {
			s.sacked[0].start = ack
		}
		// Fresh progress: reset backoff and restart the timer.
		s.rto = s.m.rtt.RTO()
		if s.inFlight() {
			s.rtxAt = s.m.tr.Now() + s.rto
		} else {
			s.rtxAt = 0
		}
		if s.m.cb.Writable != nil {
			s.m.cb.Writable(s)
		}
	}
	if !s.inFlight() && s.pendingBytes() <= 0 {
		s.rtxAt = 0
	}
	s.noteRanges(f.Data)
	s.maybeComplete()
}

// noteRanges folds an ack's reported ranges into the scoreboard. The
// bytes are decoder-owned and peer-controlled: at most maxAckRanges
// whole pairs are read, each clamped to [sndUna, sndNxt] and dropped
// if nothing is left, and none is retained.
func (s *Stream) noteRanges(data []byte) {
	pastMark := false
	for n := 0; n < maxAckRanges && len(data) >= 8; n, data = n+1, data[8:] {
		sp := span{binary.BigEndian.Uint32(data), binary.BigEndian.Uint32(data[4:])}
		if SeqLT(sp.start, s.sndUna) {
			sp.start = s.sndUna
		}
		if SeqGT(sp.end, s.sndNxt) {
			sp.end = s.sndNxt
		}
		if SeqGEQ(sp.start, sp.end) {
			continue
		}
		s.markSacked(sp)
		pastMark = pastMark || SeqGT(sp.end, s.rtxMark)
	}
	// Something first sent after the last retransmission got through
	// while holes retransmitted then are still open: on a FIFO path
	// those retransmissions were lost, so the holes are eligible again.
	if pastMark {
		s.rtxHi = s.sndUna
	}
}

// markSacked merges sp into the scoreboard, coalescing every span it
// overlaps or touches. A span that would be a new entry beyond the
// cap is dropped: the cap is the most holes a conforming peer can
// report in one window, and forgetting a report only delays a repair
// to the retransmission timer.
func (s *Stream) markSacked(sp span) {
	lo := sort.Search(len(s.sacked), func(i int) bool { return SeqGEQ(s.sacked[i].end, sp.start) })
	hi := lo
	for hi < len(s.sacked) && SeqLEQ(s.sacked[hi].start, sp.end) {
		hi++
	}
	if lo == hi {
		if len(s.sacked) >= int(s.m.cfg.StreamWindow)/s.m.cfg.MaxDatagram {
			return
		}
		s.sacked = append(s.sacked, span{})
		copy(s.sacked[lo+1:], s.sacked[lo:])
		s.sacked[lo] = sp
		return
	}
	if SeqLT(s.sacked[lo].start, sp.start) {
		sp.start = s.sacked[lo].start
	}
	if SeqGT(s.sacked[hi-1].end, sp.end) {
		sp.end = s.sacked[hi-1].end
	}
	s.sacked[lo] = sp
	s.sacked = append(s.sacked[:lo+1], s.sacked[hi:]...)
}

// appendLost appends retransmissions of the holes the scoreboard
// proves lost — those with at least lossThreshold segments' worth of
// bytes reported above them — that have not been retransmitted yet.
// The frames' Data aliases snd, like nextSegment's.
func (s *Stream) appendLost(frames []Frame, maxSeg int) []Frame {
	// Bytes reported above a hole only shrink going up the board, so
	// the lost holes are the ones below the first `lost` spans.
	lost, above := 0, 0
	for i := len(s.sacked) - 1; i >= 0; i-- {
		above += int(SeqDiff(s.sacked[i].end, s.sacked[i].start))
		if above >= lossThreshold*maxSeg {
			lost = i + 1
			break
		}
	}
	sent := false
	from := s.sndUna
	for _, sp := range s.sacked[:lost] {
		if SeqLT(from, s.rtxHi) {
			from = s.rtxHi
		}
		for SeqLT(from, sp.start) {
			n := min(int(SeqDiff(sp.start, from)), maxSeg)
			at := int(SeqDiff(from, s.sndUna))
			frames = append(frames, Frame{
				Type: proto.TypeStream, Stream: s.id, Off: from, Data: s.snd.Bytes(at, at+n),
			})
			from += uint32(n)
			sent = true
		}
		if SeqLT(s.rtxHi, sp.start) {
			s.rtxHi = sp.start
		}
		from = sp.end
	}
	if sent {
		s.rtxMark = s.sndMax
		s.rttValid = false // Karn: the pending sample's range may now be ambiguous
		s.rtxAt = s.m.tr.Now() + s.rto
	}
	return frames
}

// handleWindow processes a stream flow-control update.
func (s *Stream) handleWindow(f Frame) {
	if s.done {
		return
	}
	if SeqGT(f.Off, s.sndLimit) {
		s.sndLimit = f.Off
		if !s.inFlight() {
			s.rtxAt = 0 // drop the probe deadline; flush re-arms
		}
		if s.m.cb.Writable != nil {
			s.m.cb.Writable(s)
		}
	}
}

// maybeComplete terminates the stream cleanly once both directions
// finished: our FIN fully acknowledged, the peer's FIN received, and
// every received byte consumed (or discarded) locally.
func (s *Stream) maybeComplete() {
	if s.done || !s.finAcked || !s.finRcvd || s.snd.Len() != 0 {
		return
	}
	if s.rcvNxt != s.finRcvOff || s.rcv.Len() != 0 {
		return
	}
	s.m.terminate(s, nil)
}
