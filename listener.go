package natpunch

import (
	"net"
	"sync"
)

// Listener delivers sessions initiated by peers (the forwarded
// connection request of §3.2 step 2 arrives without any local dial).
// It satisfies net.Listener; Accept returns *Conn values.
type Listener struct {
	d *Dialer

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Conn
	closed bool
}

var _ net.Listener = (*Listener)(nil)

func newListener(d *Dialer) *Listener {
	l := &Listener{d: d}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// enqueue hands an inbound Conn to Accept (engine context, or Listen
// draining the pre-listener backlog).
func (l *Listener) enqueue(c *Conn) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		// enqueue may run in engine context; Close re-enters the
		// engine via Invoke, so defer it to a fresh goroutine.
		go c.Close()
		return
	}
	l.queue = append(l.queue, c)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Accept blocks until a peer establishes a session with this
// endpoint, returning it as a net.Conn (concretely a *Conn).
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.AcceptConn()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// AcceptConn is Accept returning the concrete type.
func (l *Listener) AcceptConn() (*Conn, error) {
	l.d.addWaiter()
	defer l.d.removeWaiter()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if len(l.queue) > 0 {
			c := l.queue[0]
			// Nil the popped slot and drop a drained array, as Conn.Read
			// does: the backing array would otherwise keep every
			// accepted Conn, with its session and Dialer, reachable.
			l.queue[0] = nil
			l.queue = l.queue[1:]
			if len(l.queue) == 0 {
				l.queue = nil
			}
			return c, nil
		}
		if l.closed {
			return nil, ErrClosed
		}
		l.cond.Wait()
	}
}

// Addr returns the endpoint's public address as observed by S.
func (l *Listener) Addr() net.Addr { return l.d.PublicAddr() }

// Close stops accepting. Sessions already queued are closed; the
// Dialer itself stays open and may Listen again.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	queued := l.queue
	l.queue = nil
	l.cond.Broadcast()
	l.mu.Unlock()

	for _, c := range queued {
		c.Close()
	}
	l.d.mu.Lock()
	if l.d.listener == l {
		l.d.listener = nil
	}
	l.d.mu.Unlock()
	return nil
}
