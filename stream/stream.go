package stream

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	istream "natpunch/internal/stream"
)

// Stream is one reliable, ordered, flow-controlled byte stream within
// a Session. It satisfies net.Conn: Read/Write block (honoring
// deadlines), Close is graceful on the write side — buffered bytes
// still flush and the peer reads EOF after the final byte.
//
// Both directions close independently: CloseWrite half-closes like
// net.TCPConn, and a peer's half-close surfaces as io.EOF after its
// last byte. Reset abandons the stream abruptly in both directions.
//
// Reads run one at a time, and so do Writes, as on a net.TCPConn; a
// Read and a Write run side by side.
type Stream struct {
	s  *Session
	es *istream.Stream // engine state: touch only inside tr.Invoke
	id uint64

	rd, wr op

	queued bool // in s.woken for the running entry (engine context)

	// Guarded by s.mu.
	cond     sync.Cond // the stream's waiters, on s.mu
	gen      uint64    // bumped by the stream's events; wait token
	rdl, wdl time.Time
	closed   bool // facade Close: reads refused locally
	wclosed  bool // CloseWrite issued
}

// op is one direction's call state, owned by whoever holds mu: the
// engine call, built once, with its argument and results in fields
// instead of a closure per call, and the deadline timer, Reset per
// blocked wait. So a Read or a Write allocates nothing.
type op struct {
	mu    sync.Mutex
	fn    func()
	p     []byte // in: the caller's buffer, cleared after the call
	n     int    // out: bytes moved
	eof   bool   // out: a Read reached the peer's FIN
	done  bool   // out: the engine stream has terminated
	err   error  // out: its terminal error
	timer *time.Timer
}

var _ net.Conn = (*Stream)(nil)

// ID returns the stream's wire ID — unique within the session, odd
// for one endpoint's streams and even for the other's.
func (st *Stream) ID() uint64 { return st.id }

// bump wakes the stream's waiters (caller holds s.mu).
func (st *Stream) bump() {
	st.gen++
	st.s.wakes++
	st.cond.Broadcast()
}

// engineRead and engineWrite are rd.fn and wr.fn (engine context).
func (st *Stream) engineRead() {
	o := &st.rd
	o.n, o.eof = st.es.Read(o.p)
	o.done, o.err = st.es.Done(), st.es.Err()
}

func (st *Stream) engineWrite() {
	o := &st.wr
	o.n = st.es.Write(o.p)
	o.done, o.err = st.es.Done(), st.es.Err()
}

// call runs o's engine call on p.
func (st *Stream) call(o *op, p []byte) {
	o.p = p
	st.s.tr.Invoke(o.fn)
	o.p = nil
}

// block waits until the stream is woken past gen or the deadline, if
// any, passes; o's timer wakes it then.
func (st *Stream) block(o *op, gen uint64, deadline time.Time) {
	if deadline.IsZero() {
		st.s.wait(&st.cond, &st.gen, gen, deadline)
		return
	}
	if d := time.Until(deadline); o.timer == nil {
		o.timer = time.AfterFunc(d, st.deadlineWake)
	} else {
		o.timer.Reset(d)
	}
	st.s.wait(&st.cond, &st.gen, gen, deadline)
	o.timer.Stop()
}

// deadlineWake is the deadline timers' callback: the waiters look at
// the clock again, and gen stays where it is.
func (st *Stream) deadlineWake() {
	st.s.mu.Lock()
	st.cond.Broadcast()
	st.s.mu.Unlock()
}

// Read returns the next in-order bytes, blocking until data, EOF,
// deadline, or stream/session termination.
func (st *Stream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	o := &st.rd
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		st.s.mu.Lock()
		if st.closed {
			st.s.mu.Unlock()
			return 0, net.ErrClosed
		}
		rdl, gen := st.rdl, st.gen
		st.s.mu.Unlock()

		st.call(o, p)
		switch {
		case o.n > 0:
			return o.n, nil
		case o.eof:
			return 0, io.EOF
		case o.done:
			if o.err == nil {
				return 0, io.EOF
			}
			return 0, o.err
		case !rdl.IsZero() && !time.Now().Before(rdl):
			return 0, os.ErrDeadlineExceeded
		}
		st.block(o, gen, rdl)
	}
}

// Write sends p on the stream, blocking for flow-control credit as
// needed; it returns short only on deadline or termination.
func (st *Stream) Write(p []byte) (int, error) {
	o := &st.wr
	o.mu.Lock()
	defer o.mu.Unlock()
	total := 0
	for total < len(p) {
		st.s.mu.Lock()
		if st.closed || st.wclosed {
			st.s.mu.Unlock()
			return total, net.ErrClosed
		}
		wdl, gen := st.wdl, st.gen
		st.s.mu.Unlock()

		st.call(o, p[total:])
		total += o.n
		switch {
		case o.done && o.err != nil:
			return total, o.err
		case o.done:
			return total, net.ErrClosed
		case o.n > 0:
			continue
		case !wdl.IsZero() && !time.Now().Before(wdl):
			return total, os.ErrDeadlineExceeded
		}
		st.block(o, gen, wdl)
	}
	return total, nil
}

// CloseWrite half-closes the stream: buffered bytes flush, then the
// peer reads io.EOF. Reads remain open.
func (st *Stream) CloseWrite() error {
	st.s.mu.Lock()
	st.wclosed = true
	st.s.mu.Unlock()
	st.s.tr.Invoke(func() { st.es.CloseWrite() })
	return nil
}

// Close closes the stream gracefully: the write side half-closes (the
// peer still receives everything written), and the read side is
// abandoned — arriving data is discarded, with further local Reads
// returning net.ErrClosed. Close never blocks on the peer.
func (st *Stream) Close() error {
	st.s.mu.Lock()
	if st.closed {
		st.s.mu.Unlock()
		return nil
	}
	st.closed = true
	st.wclosed = true
	st.bump()
	st.s.mu.Unlock()
	st.s.tr.Invoke(func() {
		st.es.CloseWrite()
		st.es.DiscardReads()
	})
	return nil
}

// Reset abandons the stream in both directions immediately: the peer
// sees a reset error, unsent bytes are dropped.
func (st *Stream) Reset() error {
	st.s.mu.Lock()
	st.closed = true
	st.wclosed = true
	st.bump()
	st.s.mu.Unlock()
	st.s.tr.Invoke(func() { st.es.Reset() })
	return nil
}

// Err returns the stream's terminal error: nil while live or after a
// clean close, otherwise the reset or session error.
func (st *Stream) Err() error {
	var err error
	st.s.tr.Invoke(func() { err = st.es.Err() })
	return err
}

// LocalAddr returns the session's local address.
func (st *Stream) LocalAddr() net.Addr { return st.s.conn.LocalAddr() }

// RemoteAddr returns the session's current peer address; like
// Conn.RemoteAddr it tracks live path migration.
func (st *Stream) RemoteAddr() net.Addr { return st.s.conn.RemoteAddr() }

// SetDeadline implements net.Conn.
func (st *Stream) SetDeadline(t time.Time) error {
	st.s.mu.Lock()
	st.rdl, st.wdl = t, t
	st.bump()
	st.s.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn: Reads blocked at t (and later
// Reads while the deadline stands) return os.ErrDeadlineExceeded.
func (st *Stream) SetReadDeadline(t time.Time) error {
	st.s.mu.Lock()
	st.rdl = t
	st.bump()
	st.s.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (st *Stream) SetWriteDeadline(t time.Time) error {
	st.s.mu.Lock()
	st.wdl = t
	st.bump()
	st.s.mu.Unlock()
	return nil
}
