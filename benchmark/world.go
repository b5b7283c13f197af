package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"natpunch"
	"natpunch/realudp"
	"natpunch/rendezvousapi"
	"natpunch/stream"
	"natpunch/transport"
)

// Every workload crosses real UDP sockets on the host's loopback
// interface. Nothing here touches a real link: loopback has no wire
// latency, loss or MTU, so the numbers say what the code costs, not
// what a network would add.
const loopback = "127.0.0.1:0"

// punchTimeout bounds a dial's punching phase by the class of path the
// workload expects. On the severed path the relay is nominated at this
// deadline, so set-up time there is this constant plus the work and
// the deadline is short. A direct punch on loopback is over in
// microseconds and never sees its deadline — unless the host stops
// the whole process for longer than it (this one is shared, and does),
// the relay is nominated as the process wakes up, and a run dies of a
// wrong path class the program never chose. The direct deadline is
// therefore the library's default, which no stall is expected to reach.
func punchTimeout(class string) time.Duration {
	if class == "relay" {
		return 500 * time.Millisecond
	}
	return 10 * time.Second
}

// ioTimeout bounds every blocking facade call a load goroutine makes,
// so a wedged session fails the run instead of hanging it.
const ioTimeout = 10 * time.Second

// loopWorld is a rendezvous server S on loopback and the endpoints
// opened against it.
type loopWorld struct {
	c        *runCtx
	serverTr *realudp.Transport
	seam     transport.Transport // what the server runs on: serverTr, or serverTr traced
	srv      *rendezvousapi.Server
	server   transport.Endpoint
	peers    []*peer
}

// peer is one natpunch endpoint with its own socket.
type peer struct {
	d    *natpunch.Dialer
	tr   *realudp.Transport
	seam transport.Transport // what the Dialer runs on: tr, or tr traced
}

func newLoopWorld(c *runCtx) (*loopWorld, error) {
	tr, err := realudp.New(loopback)
	if err != nil {
		return nil, err
	}
	seam := c.wrap(roleServer, tr, wrapOpts{every: 64})
	srv, err := rendezvousapi.Serve(seam, 0)
	if err != nil {
		tr.Close()
		c.fold(seam)
		return nil, err
	}
	return &loopWorld{c: c, serverTr: tr, seam: seam, srv: srv, server: srv.Endpoint()}, nil
}

// open registers a named endpoint on a fresh socket.
func (w *loopWorld) open(name string, o wrapOpts, opts ...natpunch.Option) (*peer, error) {
	p, err := openPeer(w.c, name, w.server, o, opts...)
	if err == nil {
		w.peers = append(w.peers, p)
	}
	return p, err
}

func openPeer(c *runCtx, name string, server transport.Endpoint, o wrapOpts, opts ...natpunch.Option) (*peer, error) {
	t0 := time.Now()
	tr, err := realudp.New(loopback)
	if err != nil {
		return nil, err
	}
	seam := c.wrap(roleClient, tr, o)
	d, err := natpunch.Open(seam, name, server, opts...)
	if err != nil {
		tr.Close()
		c.fold(seam)
		return nil, fmt.Errorf("open %s: %w", name, err)
	}
	c.tr.stage("open", time.Since(t0))
	return &peer{d: d, tr: tr, seam: seam}, nil
}

func (p *peer) close(c *runCtx) {
	p.d.Close()
	p.tr.Close()
	c.fold(p.seam)
}

// traceOp opens an application-level span for operation op when this
// peer is traced and op is one of the sampled ones; the returned func
// closes it.
func (p *peer) traceOp(op uint64, every uint64) func() {
	tt, ok := p.seam.(*tracedTransport)
	if !ok || op%every != 0 {
		return nopFunc
	}
	id, start := tt.beginOp(op)
	return func() { tt.endOp(id, op, start) }
}

func nopFunc() {}

// close tears the world down, keeping the server's counters.
func (w *loopWorld) close() {
	for _, p := range w.peers {
		p.close(w.c)
	}
	st := w.srv.Stats()
	w.c.res.Relayed, w.c.res.SrvErrors = st.RelayedMessages, st.Errors
	w.srv.Close()
	w.serverTr.Close()
	w.c.fold(w.seam)
}

// sever blacks out the direct path between a and b at both ends,
// leaving only what comes from the server: on loopback every endpoint
// shares 127.0.0.1, so peers are told apart by port.
func sever(_ *runCtx, a, b *peer) {
	portA := transport.Port(a.tr.LocalAddr().Port)
	portB := transport.Port(b.tr.LocalAddr().Port)
	a.tr.SetPacketFilter(func(src transport.Endpoint) bool { return src.Port != portB })
	b.tr.SetPacketFilter(func(src transport.Endpoint) bool { return src.Port != portA })
}

// classOf reduces a path to the class a workload expects.
func classOf(path string) string {
	if path == "relay" {
		return "relay"
	}
	return "direct"
}

func checkClass(conn *natpunch.Conn, want string) error {
	if got := classOf(conn.Path()); got != want {
		return fmt.Errorf("session to %s established on a %s path (%s), want %s", conn.Peer(), got, conn.Path(), want)
	}
	return nil
}

// dialEcho dials peer, checks the path class, sends payload and waits
// for the peer to send it back: the datagram connect every stage
// metric is defined on.
func dialEcho(c *runCtx, d *natpunch.Dialer, peer, class string, payload, buf []byte) (*natpunch.Conn, error) {
	t0 := time.Now()
	conn, err := d.Dial(peer)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := checkClass(conn, class); err != nil {
		conn.Close()
		return nil, incorrect{err}
	}
	if _, err := conn.Write(payload); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(ioTimeout))
	n, err := conn.Read(buf)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !bytes.Equal(buf[:n], payload) {
		conn.Close()
		return nil, incorrect{fmt.Errorf("echo from %s: %d bytes differ from the %d sent", peer, n, len(payload))}
	}
	c.tr.stage("dial", t1.Sub(t0))
	c.tr.stage("first_byte", time.Since(t1))
	return conn, nil
}

// incorrect marks an error as a wrong output — as opposed to an
// operation that merely failed — which fails the whole run.
type incorrect struct{ error }

func isIncorrect(err error) bool {
	var i incorrect
	return errors.As(err, &i)
}

// echoOnce serves one accepted datagram session: read one datagram,
// send it back, close. Closing matters — a session left open would be
// found again when a later client reuses the ephemeral port.
func echoOnce(conn *natpunch.Conn) {
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(ioTimeout))
	if n, err := conn.Read(buf); err == nil {
		conn.Write(buf[:n])
	}
	conn.Close()
}

// streamOpts is the option set of every stream workload.
func streamOpts(class string) []natpunch.Option {
	return []natpunch.Option{
		natpunch.WithStreams(),
		natpunch.WithICE(),
		natpunch.WithRelayFallback(),
		natpunch.WithPunchTimeout(punchTimeout(class)),
	}
}

// streamPair is alice and bob with one stream session between them.
type streamPair struct {
	w            *loopWorld
	alice, bob   *peer
	sessA, sessB *stream.Session
}

// newStreamPair opens both endpoints, lets prepare shape the path
// (sever it, make it lossy), dials, and brings a stream session up on
// both ends; the session's first ping round trip is the connect's
// first byte.
func newStreamPair(c *runCtx, class string, prepare func(c *runCtx, alice, bob *peer)) (*streamPair, error) {
	w, err := newLoopWorld(c)
	if err != nil {
		return nil, err
	}
	sp := &streamPair{w: w}
	o := wrapOpts{every: 64, sniffStream: true}
	if sp.bob, err = w.open("bob", o, streamOpts(class)...); err != nil {
		w.close()
		return nil, err
	}
	t0 := time.Now()
	if sp.alice, err = w.open("alice", o, streamOpts(class)...); err != nil {
		w.close()
		return nil, err
	}
	if prepare != nil {
		prepare(c, sp.alice, sp.bob)
	}
	ln, err := sp.bob.d.Listen()
	if err != nil {
		w.close()
		return nil, err
	}
	type accepted struct {
		sess *stream.Session
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			ch <- accepted{err: err}
			return
		}
		sess, err := stream.NewSession(conn)
		ch <- accepted{sess: sess, err: err}
	}()
	t1 := time.Now()
	conn, err := sp.alice.d.Dial("bob")
	if err != nil {
		w.close() // closes bob, which fails the pending accept
		return nil, err
	}
	t2 := time.Now()
	if err := checkClass(conn, class); err != nil {
		w.close()
		return nil, incorrect{err}
	}
	if sp.sessA, err = stream.NewSession(conn); err != nil {
		w.close()
		return nil, err
	}
	// The first ping can be lost on a relayed path, where the dialer
	// is told the relay is up before the listener is; probes are not
	// retransmitted, so try again — soon, a loopback round trip being
	// microseconds, or a lost probe would be most of the set-up time.
	for try := 0; ; try++ {
		if _, err = sp.sessA.Ping(50 * time.Millisecond); err == nil {
			break
		}
		if try == 100 {
			w.close()
			return nil, fmt.Errorf("session to bob never answered a ping: %w", err)
		}
	}
	a := <-ch
	if a.err != nil {
		w.close()
		return nil, a.err
	}
	sp.sessB = a.sess
	c.tr.stage("dial", t2.Sub(t1))
	c.tr.stage("first_byte", time.Since(t2))
	c.tr.stage("connect", time.Since(t0))
	return sp, nil
}

func (sp *streamPair) close() {
	sp.sessA.Close()
	sp.sessB.Close()
	sp.w.close()
}
