package natpunch

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"natpunch/internal/punch"
	"natpunch/transport"
)

// Addr is the net.Addr implementation for natpunch endpoints. Relay
// sessions have no direct remote endpoint; their Addr renders as
// "relay".
type Addr struct {
	ep    transport.Endpoint
	relay bool
}

// Network returns "natpunch".
func (a Addr) Network() string { return "natpunch" }

// String renders the endpoint ("addr:port", or "relay" for relayed
// sessions).
func (a Addr) String() string {
	if a.relay {
		return "relay"
	}
	return a.ep.String()
}

// Endpoint returns the underlying wire endpoint (zero for relayed
// sessions).
func (a Addr) Endpoint() transport.Endpoint { return a.ep }

// Conn is an established peer-to-peer session satisfying net.Conn.
//
// Conn is message-oriented like net.UDPConn: each Write sends one
// datagram and each Read returns one (truncating to the buffer,
// discarding the rest, exactly like UDP). Reliable byte streams are
// layered on top by natpunch/stream (Carry). Deadlines are
// wall-clock on every transport (they bound the application's wait,
// not the protocol's virtual timers).
//
// A Conn whose session dies under §3.6 idle detection returns
// ErrSessionDead from Read; the application may re-dial on demand.
type Conn struct {
	d     *Dialer
	peer  string
	local Addr

	// sess is an engine object: touched only under d.tr.Invoke.
	sess *punch.UDPSession

	mu       sync.Mutex
	cond     *sync.Cond
	via      punch.Method // live path; moves on upgrade/failback
	remote   Addr         // live remote endpoint, tracks via
	inbox    [][]byte     // datagram queue
	closed   bool         // closed locally
	dead     bool         // terminal: §3.6 idle death or superseded
	deadErr  error        // which terminal error Read/Write surface
	rdl, wdl time.Time
	rdlTimer *time.Timer

	// tap/onDead divert the Conn to a stream session (Carry): inbound
	// datagrams go to tap instead of the inbox, and onDead fires once
	// when the session terminates. Installed in engine context.
	tap    func(p []byte)
	onDead func(err error)
}

var _ net.Conn = (*Conn)(nil)

// newUDPConn wraps an engine UDP session (engine context).
func (d *Dialer) newUDPConn(s *punch.UDPSession) *Conn {
	c := &Conn{
		d: d, peer: s.Peer, via: s.Via, sess: s,
		local:  Addr{ep: d.client.PrivateUDP()},
		remote: Addr{ep: s.Remote, relay: s.Via == punch.MethodRelay},
	}
	c.cond = sync.NewCond(&c.mu)
	s.OnPathChange(d.udpPathChanged)
	d.adopt(s, c)
	return c
}

// migrated tracks an engine path migration (engine context): the Conn
// follows its session between relay and direct paths so Path() and
// RemoteAddr() stay live, then the user's OnPathChange hook fires.
func (c *Conn) migrated(s *punch.UDPSession, old, new punch.Method) {
	c.mu.Lock()
	c.via = new
	c.remote = Addr{ep: s.Remote, relay: new == punch.MethodRelay}
	c.mu.Unlock()
	if fn := c.d.cfg.onPathChange; fn != nil {
		fn(c.peer, old.String(), new.String())
	}
}

// adopt records a new Conn and retires any previous Conn to the same
// peer: the engine replaces sessions in place (a re-dial or a peer's
// fresh negotiation closes the old session without firing Dead), so
// the superseded Conn must be marked dead here or its readers would
// block forever. Retired Conns surface ErrSuperseded — distinct from
// a genuine §3.6 death, though errors.Is(err, ErrSessionDead) still
// holds — and drop their deadline timer, which would otherwise keep
// firing into the abandoned Conn until its wall-clock deadline.
func (d *Dialer) adopt(sess *punch.UDPSession, c *Conn) {
	var stale []*Conn
	d.mu.Lock()
	for k, old := range d.conns {
		if old.peer == c.peer {
			delete(d.conns, k)
			stale = append(stale, old)
		}
	}
	d.conns[sess] = c
	d.mu.Unlock()
	for _, old := range stale {
		old.mu.Lock()
		old.dead = true
		if old.deadErr == nil {
			old.deadErr = ErrSuperseded
		}
		if old.rdlTimer != nil {
			old.rdlTimer.Stop()
			old.rdlTimer = nil
		}
		err := old.deadError()
		onDead := old.onDead
		old.onDead = nil
		old.cond.Broadcast()
		old.mu.Unlock()
		if onDead != nil {
			onDead(err)
		}
	}
}

// Peer returns the remote endpoint's rendezvous name.
func (c *Conn) Peer() string { return c.peer }

// Path classifies the session's current path: "private" (§3.3),
// "public" (punched or hairpinned, §3.4-3.5), or "relay" (§2.2). With
// WithRelayFirst/WithPathUpgrade the value is live — it moves from
// "relay" to a direct class when the background punch upgrades the
// session, and back on failback.
func (c *Conn) Path() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.via.String()
}

// LocalAddr returns the local socket address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the current peer endpoint ("relay" for relayed
// sessions). Like Path, it tracks live migrations.
func (c *Conn) RemoteAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// deliver appends inbound payload (engine context).
func (c *Conn) deliver(p []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if tap := c.tap; tap != nil {
		// Carried: hand the datagram straight to the stream session,
		// still in engine context. p is callback-scoped; the stream
		// parser copies what it keeps.
		c.mu.Unlock()
		tap(p)
		return
	}
	defer c.mu.Unlock()
	c.inbox = append(c.inbox, append([]byte(nil), p...))
	c.cond.Broadcast()
}

// markDead flags §3.6 idle death (engine context).
func (c *Conn) markDead() {
	c.mu.Lock()
	c.dead = true
	if c.deadErr == nil {
		c.deadErr = ErrSessionDead
	}
	err := c.deadError()
	onDead := c.onDead
	c.onDead = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if onDead != nil {
		onDead(err)
	}
	c.d.forget(c.sess)
}

// deadError reports which terminal error this dead Conn surfaces
// (caller holds c.mu).
func (c *Conn) deadError() error {
	if c.deadErr != nil {
		return c.deadErr
	}
	return ErrSessionDead
}

// Read returns the next datagram (long datagrams truncate to len(p)
// like net.UDPConn). It blocks until data, deadline, close, or
// session death.
func (c *Conn) Read(p []byte) (int, error) {
	c.d.addWaiter()
	defer c.d.removeWaiter()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.inbox) > 0 {
			n := copy(p, c.inbox[0])
			// Nil the popped slot before resslicing: the backing array
			// keeps every consumed position alive until the whole array
			// is dropped, so a long-lived Conn would otherwise pin every
			// datagram it ever received.
			c.inbox[0] = nil
			c.inbox = c.inbox[1:]
			if len(c.inbox) == 0 {
				c.inbox = nil // drained: release the backing array
			}
			return n, nil
		}
		switch {
		case c.tap != nil:
			return 0, ErrCarried
		case c.closed:
			return 0, ErrClosed
		case c.dead:
			return 0, c.deadError()
		case !c.rdl.IsZero() && !time.Now().Before(c.rdl):
			return 0, os.ErrDeadlineExceeded
		}
		c.cond.Wait()
	}
}

// Write sends p as one datagram. Sends never block on the peer; the
// write deadline only guards an already-closed or dead session.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	switch {
	case c.tap != nil:
		c.mu.Unlock()
		return 0, ErrCarried
	case c.closed:
		c.mu.Unlock()
		return 0, ErrClosed
	case c.dead:
		err := c.deadError()
		c.mu.Unlock()
		return 0, err
	case !c.wdl.IsZero() && !time.Now().Before(c.wdl):
		c.mu.Unlock()
		return 0, os.ErrDeadlineExceeded
	}
	c.mu.Unlock()

	var err error
	c.d.tr.Invoke(func() { err = c.sess.Send(p) })
	if err != nil {
		return 0, fmt.Errorf("natpunch: write to %s: %w", c.peer, err)
	}
	return len(p), nil
}

// Close tears the session down locally.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.rdlTimer != nil {
		c.rdlTimer.Stop()
	}
	onDead := c.onDead
	c.onDead = nil
	c.cond.Broadcast()
	c.mu.Unlock()

	c.d.tr.Invoke(func() {
		if onDead != nil {
			onDead(ErrClosed)
		}
		c.sess.Close()
	})
	c.d.forget(c.sess)
	return nil
}

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.SetWriteDeadline(t)
	return c.SetReadDeadline(t)
}

// SetReadDeadline implements net.Conn: Reads blocked at t (and future
// Reads while the deadline stands) return os.ErrDeadlineExceeded.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rdl = t
	if c.rdlTimer != nil {
		c.rdlTimer.Stop()
		c.rdlTimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		c.rdlTimer = time.AfterFunc(d, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
	}
	c.cond.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn. Writes are non-blocking, so
// the deadline only affects Writes issued after it passes.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl = t
	c.mu.Unlock()
	return nil
}
