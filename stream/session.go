// Package stream multiplexes reliable, flow-controlled byte streams
// over a punched natpunch session: a QUIC-style stream layer for the
// paper's UDP hole-punched (or relayed) datagram paths.
//
// A Session wraps any natpunch Conn — direct, relayed, or relay-first
// — and yields net.Conn-shaped streams via OpenStream and
// AcceptStream. Delivery is migration-safe: a transfer started over
// the relay continues without byte loss or reordering through a live
// relay→direct upgrade and through §3.6 failback, because
// retransmission state is keyed by stream offset, never by path.
//
//	d, _ := natpunch.Open(tr, "alice", server, natpunch.WithRelayFallback())
//	conn, _ := d.Dial(ctx, "bob")
//	sess, _ := stream.NewSession(conn)
//	st, _ := sess.OpenStream()
//	st.Write([]byte("hello"))
//
// Both endpoints should share the same window configuration (there is
// no handshake; each side assumes the peer's initial credit mirrors its
// own). The engine lives in
// internal/stream and runs entirely on the transport seam, so
// simulated sessions are deterministic in virtual time.
package stream

import (
	"errors"
	"net"
	"sync"
	"time"

	"natpunch"
	istream "natpunch/internal/stream"
	"natpunch/transport"
)

// Config tunes a Session's stream engine. The zero value selects the
// defaults noted per field. Both endpoints of a session must use the
// same window configuration.
type Config struct {
	// StreamWindow is the per-stream receive window in bytes
	// (default 256 KiB).
	StreamWindow uint32
	// SessionWindow is the session-wide receive budget in bytes
	// (default 1 MiB).
	SessionWindow uint32
	// MaxDatagram bounds one packed frame datagram (default 1152).
	MaxDatagram int
	// InitialRTO seeds the retransmission timeout before the first
	// RTT sample (default 500ms); MinRTO/MaxRTO clamp it
	// (defaults 100ms / 10s).
	InitialRTO, MinRTO, MaxRTO time.Duration
}

// Option tunes NewSession.
type Option func(*Config)

// WithConfig replaces the whole engine configuration.
func WithConfig(c Config) Option { return func(dst *Config) { *dst = c } }

// WithWindows sets the per-stream and per-session receive windows.
func WithWindows(stream, session uint32) Option {
	return func(c *Config) { c.StreamWindow, c.SessionWindow = stream, session }
}

// Session runs multiplexed reliable streams over one natpunch Conn.
type Session struct {
	conn *natpunch.Conn
	cr   *natpunch.Carrier
	tr   transport.Transport
	w    transport.Waiter // non-nil on virtual-time transports

	// mux, early and the wake-up fields are engine-context state:
	// touched only inside tr.Invoke or engine callbacks.
	mux   *istream.Mux
	early [][]byte // datagrams that arrived before the mux existed
	// On a transport with an end of entry (transport.Deferrer) the
	// readable/writable wake-up is sent once per entry, from wakeAtEnd
	// (built once); wakeDue says it is registered for the running entry.
	entryEnd  transport.Deferrer
	wakeAtEnd func()
	wakeDue   bool

	mu      sync.Mutex
	cond    *sync.Cond
	gen     uint64 // bumped by every engine event; wait token
	streams map[*istream.Stream]*Stream
	accepts []*Stream
	pongs   map[uint32]time.Duration
	err     error // terminal session error
	closed  bool
}

// NewSession takes over conn's datagram flow (via Carry) and starts
// the stream engine on it. conn remains usable for Peer, Path,
// RemoteAddr, and Close, while Read and Write now return
// natpunch.ErrCarried.
func NewSession(conn *natpunch.Conn, opts ...Option) (*Session, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	s := &Session{
		conn:    conn,
		streams: make(map[*istream.Stream]*Stream),
		pongs:   make(map[uint32]time.Duration),
	}
	s.cond = sync.NewCond(&s.mu)
	cr, err := conn.Carry(s.onDatagram, s.onDead)
	if err != nil {
		return nil, err
	}
	s.cr = cr
	s.tr = cr.Transport()
	if w, ok := s.tr.(transport.Waiter); ok {
		s.w = w
	}
	if d, ok := s.tr.(transport.Deferrer); ok {
		s.entryEnd = d
		s.wakeAtEnd = func() {
			s.wakeDue = false
			s.wake()
		}
	}
	// Stream-ID parity must differ across the two endpoints; both
	// sides know both rendezvous names, so the lexicographically
	// smaller name takes the even IDs.
	even := cr.LocalName() < conn.Peer()
	s.tr.Invoke(func() {
		s.mux = istream.NewMuxInPlace(s.tr, cr.BeginSend, cr.EndSend, even, istream.Config{
			StreamWindow:  cfg.StreamWindow,
			SessionWindow: cfg.SessionWindow,
			MaxDatagram:   cfg.MaxDatagram,
			InitialRTO:    cfg.InitialRTO,
			MinRTO:        cfg.MinRTO,
			MaxRTO:        cfg.MaxRTO,
		}, istream.Callbacks{
			Accept:   s.engineAccept,
			Readable: s.engineEvent,
			Writable: s.engineEvent,
			Closed:   s.engineClosed,
			Pong:     s.enginePong,
		})
		for i, p := range s.early {
			s.early[i] = nil
			s.mux.HandleDatagram(p)
		}
		s.early = nil
	})
	return s, nil
}

// onDatagram feeds an inbound session datagram to the mux (engine
// context). Carry drains queued datagrams before NewSession's mux
// exists; those are buffered and replayed in arrival order.
func (s *Session) onDatagram(p []byte) {
	if s.mux == nil {
		s.early = append(s.early, append([]byte(nil), p...))
		return
	}
	s.mux.HandleDatagram(p)
}

// onDead terminates the session when the underlying natpunch session
// dies, is superseded, or is closed (engine context).
func (s *Session) onDead(err error) {
	if s.mux != nil {
		s.mux.Fail(err)
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.bump()
	s.mu.Unlock()
}

// bump wakes every blocked facade call (caller holds s.mu).
func (s *Session) bump() {
	s.gen++
	s.cond.Broadcast()
}

// engineAccept registers a peer-initiated stream (engine context).
func (s *Session) engineAccept(es *istream.Stream) {
	st := &Stream{s: s, es: es, id: es.ID()}
	s.mu.Lock()
	s.streams[es] = st
	s.accepts = append(s.accepts, st)
	s.bump()
	s.mu.Unlock()
}

// wake is bump for callers that do not hold s.mu.
func (s *Session) wake() {
	s.mu.Lock()
	s.bump()
	s.mu.Unlock()
}

// engineEvent wakes facade waiters on any readable/writable change
// (engine context). A waiter cannot enter the engine before the entry
// that woke it is over, so where the transport says when that is, a
// batch of datagrams costs one wake-up, not one per datagram.
func (s *Session) engineEvent(*istream.Stream) {
	switch {
	case s.entryEnd == nil:
		s.wake()
	case !s.wakeDue:
		s.wakeDue = true
		s.entryEnd.Defer(s.wakeAtEnd)
	}
}

// engineClosed drops a terminated stream from the registry (engine
// context). The facade Stream keeps its engine handle — terminal
// state stays readable through it.
func (s *Session) engineClosed(es *istream.Stream, _ error) {
	s.mu.Lock()
	delete(s.streams, es)
	s.bump()
	s.mu.Unlock()
}

// enginePong records a ping result (engine context).
func (s *Session) enginePong(token uint32, rtt time.Duration) {
	s.mu.Lock()
	s.pongs[token] = rtt
	s.bump()
	s.mu.Unlock()
}

// waitChange blocks until the session generation moves past gen or
// the deadline passes; it reports false on deadline. While blocked it
// registers as a transport waiter so virtual-time worlds advance.
func (s *Session) waitChange(gen uint64, deadline time.Time) bool {
	var timer *time.Timer
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d < 0 {
			d = 0
		}
		timer = time.AfterFunc(d, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer timer.Stop()
	}
	if s.w != nil {
		s.w.AddWaiter()
		defer s.w.RemoveWaiter()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.gen == gen {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// OpenStream creates a new outgoing stream. The peer learns of it
// when its first byte (or half-close) is sent.
func (s *Session) OpenStream() (*Stream, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, net.ErrClosed
	}
	if err := s.err; err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()
	var (
		es  *istream.Stream
		err error
	)
	s.tr.Invoke(func() { es, err = s.mux.Open() })
	if err != nil {
		return nil, err
	}
	st := &Stream{s: s, es: es, id: es.ID()}
	s.mu.Lock()
	s.streams[es] = st
	s.mu.Unlock()
	return st, nil
}

// AcceptStream blocks until the peer opens a stream, returning
// streams in the order the peer opened them. It fails with the
// session's terminal error when the session dies or closes.
func (s *Session) AcceptStream() (*Stream, error) {
	for {
		s.mu.Lock()
		if len(s.accepts) > 0 {
			st := s.accepts[0]
			s.accepts[0] = nil
			s.accepts = s.accepts[1:]
			if len(s.accepts) == 0 {
				s.accepts = nil
			}
			s.mu.Unlock()
			return st, nil
		}
		switch {
		case s.closed:
			s.mu.Unlock()
			return nil, net.ErrClosed
		case s.err != nil:
			err := s.err
			s.mu.Unlock()
			return nil, err
		}
		gen := s.gen
		s.mu.Unlock()
		s.waitChange(gen, time.Time{})
	}
}

// Ping measures the session round trip with a liveness probe,
// bounded by timeout (probes ride the lossy datagram path and are
// not retransmitted, so a bound is required).
func (s *Session) Ping(timeout time.Duration) (time.Duration, error) {
	var (
		token uint32
		err   error
	)
	s.tr.Invoke(func() { token, err = s.mux.Ping() })
	if err != nil {
		return 0, err
	}
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if rtt, ok := s.pongs[token]; ok {
			delete(s.pongs, token)
			s.mu.Unlock()
			return rtt, nil
		}
		switch {
		case s.closed:
			s.mu.Unlock()
			return 0, net.ErrClosed
		case s.err != nil:
			err := s.err
			s.mu.Unlock()
			return 0, err
		}
		gen := s.gen
		s.mu.Unlock()
		if !s.waitChange(gen, deadline) {
			return 0, errors.New("stream: ping timeout")
		}
	}
}

// RTT returns the engine's smoothed round-trip estimate (zero before
// any sample: no acked data and no pong yet).
func (s *Session) RTT() time.Duration {
	var rtt time.Duration
	s.tr.Invoke(func() { rtt = s.mux.RTT() })
	return rtt
}

// Conn returns the carried natpunch Conn: Peer, Path, RemoteAddr,
// and OnPathChange observations remain live on it during migration.
func (s *Session) Conn() *natpunch.Conn { return s.conn }

// Close shuts the session down: every stream terminates (the peer
// sees resets), blocked calls return, and the underlying Conn is
// closed.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.bump()
	s.mu.Unlock()
	s.tr.Invoke(func() { s.mux.Close() })
	return s.conn.Close()
}
