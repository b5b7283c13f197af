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
// The engine lives in internal/stream and runs entirely on the
// transport seam, so simulated sessions are deterministic in virtual
// time.
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

// pongPending marks a registered ping token whose pong has not arrived.
const pongPending time.Duration = -1

// Session runs multiplexed reliable streams over one natpunch Conn.
type Session struct {
	conn *natpunch.Conn
	cr   *natpunch.Carrier
	tr   transport.Transport
	w    transport.Waiter // non-nil on virtual-time transports

	// mux, early and the wake-up queue are engine-context state:
	// touched only inside tr.Invoke or engine callbacks.
	mux   *istream.Mux
	early [][]byte // datagrams that arrived before the mux existed
	// A stream an event names is queued in woken once per entry
	// (Stream.queued), and wakeAtEnd (s.wakeQueued, built once),
	// deferred by the first, wakes them all when the transport's entry
	// ends (transport.EntryEnd).
	entryEnd  transport.Deferrer
	wakeAtEnd func()
	woken     []*Stream

	// streams finds the facade stream of an engine stream. It is written
	// in engine context under mu, so engine context reads it without the
	// lock and everyone else under it.
	streams map[*istream.Stream]*Stream

	mu      sync.Mutex
	cond    sync.Cond // session waiters (AcceptStream, Ping), on mu
	gen     uint64    // bumped by accepts, pongs and the session's end; wait token
	wakes   uint64    // wake-ups so far, of the session and its streams alike
	accepts []*Stream
	pongs   map[uint32]time.Duration // running Pings' tokens: pongPending until the RTT arrives
	err     error                    // terminal session error
	closed  bool
}

// NewSession takes over conn's datagram flow (via Carry) and starts
// the stream engine on it. conn remains usable for Peer, Path,
// RemoteAddr, and Close, while Read and Write now return
// natpunch.ErrCarried.
func NewSession(conn *natpunch.Conn) (*Session, error) {
	s := &Session{
		conn:    conn,
		streams: make(map[*istream.Stream]*Stream),
		pongs:   make(map[uint32]time.Duration),
	}
	s.cond.L = &s.mu
	cr, err := conn.Carry(s.onDatagram, s.onDead)
	if err != nil {
		return nil, err
	}
	s.cr = cr
	s.tr = cr.Transport()
	if w, ok := s.tr.(transport.Waiter); ok {
		s.w = w
	}
	s.entryEnd = transport.EntryEnd(s.tr)
	s.wakeAtEnd = s.wakeQueued
	// Stream-ID parity must differ across the two endpoints; both
	// sides know both rendezvous names, so the lexicographically
	// smaller name takes the even IDs.
	even := cr.LocalName() < conn.Peer()
	s.tr.Invoke(func() {
		s.mux = istream.NewMuxInPlace(s.tr, cr.BeginSend, cr.EndSend, even, istream.Config{}, istream.Callbacks{
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
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.bumpAll()
	s.mu.Unlock()
	if s.mux != nil {
		s.mux.Fail(err)
	}
}

// bump wakes the session's own waiters (caller holds s.mu).
func (s *Session) bump() {
	s.gen++
	s.wakes++
	s.cond.Broadcast()
}

// bumpAll wakes the session's waiters and every stream's, for the
// session's end (caller holds s.mu).
func (s *Session) bumpAll() {
	s.bump()
	//natlint:ignore maporder every waiter sleeps on s.mu, held here, so none wakes before the loop ends: wake order is unobservable
	for _, st := range s.streams {
		st.bump()
	}
}

// register records a new facade stream for es (engine context,
// caller holds s.mu).
func (s *Session) register(es *istream.Stream) *Stream {
	st := &Stream{s: s, es: es, id: es.ID()}
	st.cond.L = &s.mu
	st.rd.fn = st.engineRead
	st.wr.fn = st.engineWrite
	s.streams[es] = st
	return st
}

// engineAccept registers a peer-initiated stream (engine context).
func (s *Session) engineAccept(es *istream.Stream) {
	s.mu.Lock()
	s.accepts = append(s.accepts, s.register(es))
	s.bump()
	s.mu.Unlock()
}

// engineEvent wakes the callers of the stream a readable/writable
// change names, and nobody else (engine context). A waiter cannot
// enter the engine before the entry that woke it is over, so each
// stream the entry touched is woken once, when it ends, however many
// events it raised. The stream is queued before Defer is called: on a
// transport whose every event is its own entry, Defer runs wakeQueued
// at once.
func (s *Session) engineEvent(es *istream.Stream) {
	st := s.streams[es]
	if st.queued {
		return
	}
	st.queued = true
	s.woken = append(s.woken, st)
	if len(s.woken) == 1 {
		s.entryEnd.Defer(s.wakeAtEnd)
	}
}

// wakeQueued wakes the streams the ending entry's events named, under
// one lock (engine context).
func (s *Session) wakeQueued() {
	s.mu.Lock()
	for i, st := range s.woken {
		st.queued = false
		st.bump()
		s.woken[i] = nil
	}
	s.mu.Unlock()
	s.woken = s.woken[:0]
}

// engineClosed drops a terminated stream from the registry (engine
// context); the engine raised its readable and writable events first,
// which woke its callers. The facade Stream keeps its engine handle —
// terminal state stays readable through it.
func (s *Session) engineClosed(es *istream.Stream, _ error) {
	s.mu.Lock()
	delete(s.streams, es)
	s.mu.Unlock()
}

// enginePong records the result of a running Ping (engine context); a
// pong whose Ping has given up is dropped.
func (s *Session) enginePong(token uint32, rtt time.Duration) {
	s.mu.Lock()
	if _, ok := s.pongs[token]; ok {
		s.pongs[token] = rtt
		s.bump()
	}
	s.mu.Unlock()
}

// wait blocks on c until *gen (the generation of c's owner, session or
// stream, guarded by s.mu) moves past token or the deadline passes; a
// caller with a deadline arranges for c to be broadcast then. While
// blocked it registers as a transport waiter so virtual-time worlds
// advance.
func (s *Session) wait(c *sync.Cond, gen *uint64, token uint64, deadline time.Time) {
	if s.w != nil {
		s.w.AddWaiter()
		defer s.w.RemoveWaiter()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for *gen == token && (deadline.IsZero() || time.Now().Before(deadline)) {
		c.Wait()
	}
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
		st  *Stream
		err error
	)
	s.tr.Invoke(func() {
		var es *istream.Stream
		if es, err = s.mux.Open(); err == nil {
			s.mu.Lock()
			st = s.register(es)
			s.mu.Unlock()
		}
	})
	return st, err
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
		s.wait(&s.cond, &s.gen, gen, time.Time{})
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
	// The token is registered in the entry that sends the probe, so its
	// pong cannot arrive first, and forgotten however Ping returns, so a
	// pong that arrives too late finds nothing to fill.
	s.tr.Invoke(func() {
		if token, err = s.mux.Ping(); err == nil {
			s.mu.Lock()
			s.pongs[token] = pongPending
			s.mu.Unlock()
		}
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		s.mu.Lock()
		delete(s.pongs, token)
		s.mu.Unlock()
	}()
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for {
		s.mu.Lock()
		if rtt := s.pongs[token]; rtt != pongPending {
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
		case !time.Now().Before(deadline):
			s.mu.Unlock()
			return 0, errors.New("stream: ping timeout")
		}
		gen := s.gen
		s.mu.Unlock()
		s.wait(&s.cond, &s.gen, gen, deadline)
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
	s.bumpAll()
	s.mu.Unlock()
	s.tr.Invoke(func() { s.mux.Close() })
	return s.conn.Close()
}
