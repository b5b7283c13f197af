package natpunch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/transport"
)

// Facade-level errors.
var (
	// ErrClosed is returned by operations on a closed Dialer,
	// Listener, or Conn.
	ErrClosed = errors.New("natpunch: closed")
	// ErrSessionDead is returned from Conn reads after §3.6 idle-death
	// detection declared the session gone (NAT state likely expired,
	// or the peer departed); the application may re-dial on demand.
	ErrSessionDead = errors.New("natpunch: session dead (peer stopped answering)")
	// ErrSuperseded is returned from reads and writes on a Conn whose
	// engine session was replaced by a newer session to the same peer
	// (the peer re-dialed, or a fresh inbound negotiation adopted a new
	// session). It is distinguishable from a genuine idle death, but
	// errors.Is(err, ErrSessionDead) also holds so existing re-dial
	// logic keyed on ErrSessionDead keeps working.
	ErrSuperseded error = &supersededError{}
	// ErrRegisterTimeout is returned by Open when registration with
	// the rendezvous server does not complete in time.
	ErrRegisterTimeout = errors.New("natpunch: registration with rendezvous server timed out")
	// ErrListening is returned by Listen when a listener is already
	// active.
	ErrListening = errors.New("natpunch: already listening")
	// ErrUnknownPeer is returned by Dial when the rendezvous tier has
	// no live registration for the peer — it never registered, or its
	// registration's TTL expired after its §3.6 keep-alives stopped
	// (a silent peer is purged rather than receiving forwards
	// forever). The dial fails fast on the server's error reply, not
	// by punch timeout.
	ErrUnknownPeer = errors.New("natpunch: peer not registered with any rendezvous server")
	// ErrNoServer is returned by Open when neither the server argument
	// nor the Servers option supplies a rendezvous endpoint.
	ErrNoServer = errors.New("natpunch: no rendezvous server given")
	// ErrCarried is returned by Read and Write on a Conn whose
	// datagram flow was handed to a stream session via Carry: raw
	// datagram I/O belongs to the stream mux for the rest of the
	// Conn's life.
	ErrCarried = errors.New("natpunch: conn carried by a stream session")
)

// supersededError lets ErrSuperseded carry its own identity while
// matching errors.Is(err, ErrSessionDead).
type supersededError struct{}

func (*supersededError) Error() string {
	return "natpunch: session superseded by a newer session to the same peer"
}

func (*supersededError) Is(target error) bool { return target == ErrSessionDead }

// Dialer is one named peer-to-peer endpoint: a transport socket
// registered with the rendezvous server S, able to dial peers by name
// and to accept inbound sessions through a Listener. It is the
// public face of the engine the paper describes — UDP hole punching
// (§3) by candidate negotiation, and relaying (§2.2,
// WithRelayFallback) — over any transport: the deterministic
// simulator (natpunch/simnet) or real UDP sockets (natpunch/realudp).
//
// All methods are safe for concurrent use.
type Dialer struct {
	tr     transport.Transport
	waiter transport.Waiter // non-nil on virtual-time transports
	name   string
	cfg    config
	client *punch.Client
	agent  *ice.Agent

	mu       sync.Mutex
	conns    map[*punch.UDPSession]*Conn
	listener *Listener
	pending  []*Conn // inbound conns accepted before Listen
	closed   bool
}

// Open registers a named endpoint with the rendezvous tier and
// returns its Dialer. The call blocks until registration completes
// (bounded by WithRegisterTimeout).
//
// server is the rendezvous server's endpoint; the Servers option
// pools more. With a pool, the endpoint's home server is chosen by
// stable rendezvous hashing of name (the whole deployment agrees on
// the owner) and the remaining members are the failover order. A
// zero server endpoint is allowed when Servers supplies the pool.
func Open(tr transport.Transport, name string, server transport.Endpoint, opts ...Option) (*Dialer, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	pool := make([]transport.Endpoint, 0, len(cfg.servers)+1)
	seen := make(map[transport.Endpoint]bool)
	for _, ep := range append([]transport.Endpoint{server}, cfg.servers...) {
		if ep.IsZero() || seen[ep] {
			continue
		}
		seen[ep] = true
		pool = append(pool, ep)
	}
	if len(pool) == 0 {
		return nil, ErrNoServer
	}
	pool = rendezvous.Preference(name, pool)

	d := &Dialer{tr: tr, name: name, cfg: cfg, conns: make(map[*punch.UDPSession]*Conn)}
	if w, ok := tr.(transport.Waiter); ok {
		d.waiter = w
	}

	regCh := make(chan error, 1)
	var err error
	tr.Invoke(func() {
		d.client = punch.NewClientOver(tr, name, pool[0], cfg.punch)
		if len(pool) > 1 {
			d.client.SetServerPool(pool)
		}
		d.client.InboundUDP = punch.UDPCallbacks{
			Established: func(s *punch.UDPSession) { d.inbound(d.newUDPConn(s)) },
			Data:        d.udpData,
			Dead:        d.udpDead,
		}
		done := func(e error) {
			select {
			case regCh <- e:
			default:
			}
		}
		err = d.client.RegisterUDP(cfg.localPort, done)
		if err != nil {
			return
		}
		// Every dial, and every re-punch of a live session, is a
		// candidate negotiation run by the agent; InboundUDP above still
		// answers a peer that punches with the plain §3.2 exchange.
		d.agent = ice.New(d.client, cfg.iceCfg)
		d.agent.Inbound = ice.Callbacks{
			Established: func(s *punch.UDPSession, _ ice.Candidate) { d.inbound(d.newUDPConn(s)) },
			Data:        d.udpData,
			Dead:        d.udpDead,
		}
	})
	if err != nil {
		d.shutdownEngine()
		return nil, err
	}

	d.addWaiter()
	defer d.removeWaiter()
	select {
	case e := <-regCh:
		if e != nil {
			d.shutdownEngine()
			return nil, e
		}
	case <-time.After(cfg.registerTimeout):
		d.shutdownEngine()
		return nil, ErrRegisterTimeout
	}
	return d, nil
}

// Name returns the endpoint's rendezvous identity.
func (d *Dialer) Name() string { return d.name }

// PublicAddr returns the endpoint's public UDP endpoint as observed
// by the rendezvous server (§3.1).
func (d *Dialer) PublicAddr() Addr {
	var ep transport.Endpoint
	d.tr.Invoke(func() { ep = d.client.PublicUDP() })
	return Addr{ep: ep}
}

// LocalAddr returns the endpoint's own (private, §3.1) view of its
// socket address.
func (d *Dialer) LocalAddr() Addr {
	var ep transport.Endpoint
	d.tr.Invoke(func() { ep = d.client.PrivateUDP() })
	return Addr{ep: ep}
}

// ServerEndpoint returns the rendezvous server currently homing this
// endpoint — the pool head chosen by stable hashing, until failover
// re-homes it.
func (d *Dialer) ServerEndpoint() transport.Endpoint {
	var ep transport.Endpoint
	d.tr.Invoke(func() { ep = d.client.Server() })
	return ep
}

// Failovers reports how many times this endpoint has re-homed to
// another pool server after its home went silent.
func (d *Dialer) Failovers() int {
	var n int
	d.tr.Invoke(func() { n = d.client.Failovers })
	return n
}

// Dial establishes a session with the named peer using the default
// background context.
func (d *Dialer) Dial(peer string) (*Conn, error) {
	return d.DialContext(context.Background(), peer)
}

type dialResult struct {
	conn *Conn
	err  error
}

// DialContext establishes a session with the named peer: candidate
// exchange through S, hole punching by connectivity checks, and — when
// enabled — relay fallback at the deadline. Cancelling ctx
// mid-negotiation aborts the attempt and releases all engine state
// for it.
func (d *Dialer) DialContext(ctx context.Context, peer string) (*Conn, error) {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	ch := make(chan dialResult, 1)
	deliver := func(r dialResult) {
		select {
		case ch <- r:
		default:
		}
	}
	d.tr.Invoke(func() {
		d.agent.Connect(peer, ice.Callbacks{
			Established: func(s *punch.UDPSession, _ ice.Candidate) { deliver(dialResult{conn: d.newUDPConn(s)}) },
			Failed:      func(_ string, err error) { deliver(dialResult{err: err}) },
			Data:        d.udpData,
			Dead:        d.udpDead,
		})
	})

	d.addWaiter()
	defer d.removeWaiter()
	select {
	case r := <-ch:
		if r.err != nil {
			if errors.Is(r.err, punch.ErrPeerUnknown) {
				// The rendezvous tier answered authoritatively: no live
				// registration (never registered, or TTL-purged after
				// its keep-alives stopped). Fail fast under the public
				// name.
				return nil, fmt.Errorf("natpunch: dial %s: %w", peer, ErrUnknownPeer)
			}
			return nil, fmt.Errorf("natpunch: dial %s: %w", peer, r.err)
		}
		return r.conn, nil
	case <-ctx.Done():
		d.tr.Invoke(func() { d.agent.Abort(peer) })
		// The dial may have resolved while the abort was acquiring the
		// engine; release anything that slipped through.
		select {
		case r := <-ch:
			if r.conn != nil {
				r.conn.Close()
			}
		default:
		}
		return nil, ctx.Err()
	}
}

// Listen starts accepting inbound sessions (at most one Listener at a
// time). Sessions initiated by peers before Listen was called are
// queued and delivered to the first Accept.
func (d *Dialer) Listen() (*Listener, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if d.listener != nil {
		return nil, ErrListening
	}
	l := newListener(d)
	d.listener = l
	for _, c := range d.pending {
		l.enqueue(c)
	}
	d.pending = nil
	return l, nil
}

// Close tears the endpoint down: the listener stops accepting, every
// open Conn is closed, and the engine releases its sockets, sessions,
// and timers.
func (d *Dialer) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	l := d.listener
	conns := make([]*Conn, 0, len(d.conns)+len(d.pending))
	for _, c := range d.conns {
		conns = append(conns, c)
	}
	conns = append(conns, d.pending...)
	d.pending = nil
	d.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	d.shutdownEngine()
	return nil
}

func (d *Dialer) shutdownEngine() {
	d.tr.Invoke(func() {
		if d.agent != nil {
			d.agent.Close()
		}
		if d.client != nil {
			d.client.Close()
		}
	})
}

// --- engine-context plumbing (all run inside the transport loop) ---

// inbound routes a peer-initiated Conn to the listener, or queues it
// until one exists. An inbound that races Dialer.Close — the engine
// established a session before Close's shutdown reached it — must not
// repopulate the already-drained pending queue (nothing would ever
// accept or close it); it is torn down on the spot. We are already
// inside the engine's dispatch, so the session closes directly, with
// no nested Invoke.
func (d *Dialer) inbound(c *Conn) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		c.mu.Lock()
		c.closed = true
		c.cond.Broadcast()
		c.mu.Unlock()
		c.sess.Close()
		d.forget(c.sess)
		return
	}
	l := d.listener
	if l == nil {
		d.pending = append(d.pending, c)
	}
	d.mu.Unlock()
	if l != nil {
		l.enqueue(c)
	}
}

func (d *Dialer) lookup(sess *punch.UDPSession) *Conn {
	d.mu.Lock()
	c := d.conns[sess]
	d.mu.Unlock()
	return c
}

func (d *Dialer) udpData(s *punch.UDPSession, p []byte) {
	if c := d.lookup(s); c != nil {
		c.deliver(p)
	}
}

func (d *Dialer) udpPathChanged(s *punch.UDPSession, old, new punch.Method) {
	if c := d.lookup(s); c != nil {
		c.migrated(s, old, new)
	}
}

func (d *Dialer) udpDead(s *punch.UDPSession) {
	if c := d.lookup(s); c != nil {
		c.markDead()
	}
}

func (d *Dialer) forget(sess *punch.UDPSession) {
	d.mu.Lock()
	delete(d.conns, sess)
	d.mu.Unlock()
}

func (d *Dialer) addWaiter() {
	if d.waiter != nil {
		d.waiter.AddWaiter()
	}
}

func (d *Dialer) removeWaiter() {
	if d.waiter != nil {
		d.waiter.RemoveWaiter()
	}
}
