package realudp

import (
	"bytes"
	"io"
	"testing"
	"time"

	"natpunch"
	"natpunch/rendezvousapi"
	"natpunch/stream"
	"natpunch/transport"
)

// segmenting reports whether c's segmented sends work, by making one.
func segmenting(t *testing.T, tr *Transport, c *Conn, to transport.Endpoint) bool {
	t.Helper()
	var off bool
	tr.Invoke(func() {
		c.SendTo(to, []byte{1})
		c.SendTo(to, []byte{2})
	})
	tr.Invoke(func() { off = c.bc.send.gsoOff })
	return !off
}

// TestFlightLeavesFromTheArena: the 60 datagrams of a 64 KiB stream
// write, built in place one after the other, are two pieces of memory
// when the entry ends — sendBatch of them, then the rest — and leave as
// two segmented sends straight from there, nothing gathered first. The
// same datagrams handed to the exported WriteBatch in buffers of the
// caller's are gathered, which is what the counter counts.
func TestFlightLeavesFromTheArena(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	sink, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	if !segmenting(t, tr, conn, sinkEP) {
		t.Skip("kernel refused UDP_SEGMENT: runs leave as sendmmsg, one iovec per datagram")
	}
	const n, size = 60, 1202
	flight := func() {
		for i := 0; i < n; i++ {
			p := conn.Reserve()
			for j := 0; j < size; j++ {
				p = append(p, byte(i*31+j))
			}
			conn.Commit(sinkEP, p)
		}
	}
	tr.Invoke(flight) // the arena grows to what an entry queues
	var flushes, gathers, copied int
	tr.Invoke(func() { flushes, gathers, copied = conn.flushes, conn.bc.send.gathers, conn.copied })
	tr.Invoke(flight)
	tr.Invoke(func() {
		flushes, gathers, copied = conn.flushes-flushes, conn.bc.send.gathers-gathers, conn.copied-copied
	})
	if flushes != 2 || gathers != 0 || copied != 0 {
		t.Errorf("%d datagrams left in %d WriteBatch calls with %d runs gathered and %d datagrams copied, want 2, 0 and 0",
			n, flushes, gathers, copied)
	}
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	for k := 0; k < 2+2*n; k++ {
		got, _, err := sink.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", k, err)
		}
		if k < 2 {
			continue // segmenting's probe
		}
		i := (k - 2) % n
		if got != size || buf[0] != byte(i*31) || buf[size-1] != byte(i*31+size-1) {
			t.Fatalf("datagram %d: %d bytes %x…%x, want datagram %d of the flight", k, got, buf[0], buf[got-1], i)
		}
	}

	// Caller-owned payloads, one array each, through the same socket.
	own := make([]Datagram, 8)
	for i := range own {
		own[i] = Datagram{Addr: toAddrPort(sinkEP), Payload: fill(size, byte(i))}
	}
	tr.Invoke(func() {
		gathers = conn.bc.send.gathers
		if sent, err := conn.bc.WriteBatch(own); err != nil || sent != len(own) {
			t.Errorf("WriteBatch = %d, %v", sent, err)
		}
		gathers = conn.bc.send.gathers - gathers
	})
	if gathers != 1 {
		t.Errorf("a run of %d caller-owned payloads was gathered %d times, want 1", len(own), gathers)
	}
	for i := range own {
		got, _, err := sink.ReadFromUDPAddrPort(buf)
		if err != nil || !bytes.Equal(buf[:got], own[i].Payload) {
			t.Fatalf("caller-owned datagram %d: %d bytes (%v)", i, got, err)
		}
	}
}

// TestEmptyDatagramLeavesItsRun: an empty datagram behind a run of
// equal-size ones is sent on its own — as a run's short last segment it
// would add nothing to the segmented send and never arrive.
func TestEmptyDatagramLeavesItsRun(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	sink, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	tr.Invoke(func() {
		for i := 0; i < 3; i++ {
			conn.SendTo(sinkEP, fill(32, byte(i)))
		}
		conn.SendTo(sinkEP, nil)
		conn.SendTo(sinkEP, fill(32, 3))
	})
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for i, want := range []int{32, 32, 32, 0, 32} {
		if got, _, err := sink.ReadFromUDPAddrPort(buf); err != nil || got != want {
			t.Fatalf("datagram %d: %d bytes (%v), want %d", i, got, err, want)
		}
	}
}

// TestLoopbackStreamBuiltInPlace is where the copies went, counted on
// real sockets through every layer: a stream transfer between two
// dialers on a punched loopback path is byte-exact, and once the
// sender's arena has grown to a flight, every session datagram of it —
// envelope and frames — was encoded in the memory the kernel read it
// from (none copied into the arena), and every run left from there as
// it lay (none gathered). It lives here, not beside the stream
// package's own loopback tests, because only this package can read a
// socket's counters.
func TestLoopbackStreamBuiltInPlace(t *testing.T) {
	requireLoopback(t)
	const chunk, warm, chunks = 64 << 10, 16, 256 // 1 MiB to grow into, then 16 MiB counted
	open := func(name string, server transport.Endpoint) (*natpunch.Dialer, *Transport) {
		tr := newTransport(t)
		d, err := natpunch.Open(tr, name, server)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d, tr
	}
	srv, err := rendezvousapi.Serve(newTransport(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	alice, trA := open("alice", srv.Endpoint())
	bob, _ := open("bob", srv.Endpoint())
	var sock *Conn
	trA.Invoke(func() { sock = trA.first })
	if !segmenting(t, trA, sock, srv.Endpoint()) {
		t.Skip("kernel refused UDP_SEGMENT: a flight leaves as sendmmsg, one iovec per datagram, and nothing could be gathered")
	}

	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		sess *stream.Session
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		var res result
		defer func() { got <- res }()
		conn, err := ln.AcceptConn()
		if err != nil {
			res.err = err
			return
		}
		if res.sess, res.err = stream.NewSession(conn); res.err != nil {
			return
		}
		st, err := res.sess.AcceptStream()
		if err != nil {
			res.err = err
			return
		}
		st.SetReadDeadline(time.Now().Add(120 * time.Second))
		res.data, res.err = io.ReadAll(st)
	}()

	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if conn.Path() == "relay" {
		t.Fatalf("path %s, want direct", conn.Path())
	}
	sess, err := stream.NewSession(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.SetWriteDeadline(time.Now().Add(120 * time.Second))
	sent := make([]byte, (warm+chunks)*chunk)
	for i := range sent {
		sent[i] = byte(i*7 + i>>8 + i>>16)
	}
	var flushes, gathers, copied, held int
	for i := 0; i < warm+chunks; i++ {
		if i == warm {
			trA.Invoke(func() { flushes, gathers, copied = sock.flushes, sock.bc.send.gathers, sock.copied })
		}
		if _, err := st.Write(sent[i*chunk:][:chunk]); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	trA.Invoke(func() {
		flushes, gathers, copied = sock.flushes-flushes, sock.bc.send.gathers-gathers, sock.copied-copied
		held = cap(sock.arena)
	})
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	res := <-got
	if res.sess != nil {
		defer res.sess.Close()
	}
	if res.err != nil || !bytes.Equal(res.data, sent) {
		t.Fatalf("receiver got %d of %d bytes, equal=%v: %v", len(res.data), len(sent), bytes.Equal(res.data, sent), res.err)
	}
	t.Logf("%d MiB after %d MiB of warm-up: %d WriteBatch calls, %d runs gathered, %d datagrams copied into the arena, which holds %d bytes",
		chunks*chunk>>20, warm*chunk>>20, flushes, gathers, copied, held)
	if gathers != 0 || copied != 0 {
		t.Errorf("%d runs gathered and %d datagrams copied into the arena, want 0 and 0: every session datagram is built where it is sent from", gathers, copied)
	}
	if flushes < chunks {
		t.Fatalf("%d WriteBatch calls for %d chunks: the path under test did not run", flushes, chunks)
	}
	if held > arenaMax {
		t.Errorf("the sender's socket holds %d bytes of arena, want at most %d", held, arenaMax)
	}
}
