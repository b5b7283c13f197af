package stream_test

import (
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"natpunch/stream"
	"natpunch/transport"
)

// requireCoalescing skips unless the kernel takes the two socket options
// that make a written flight arrive as runs: UDP_SEGMENT (Linux 4.18)
// on the way out and UDP_GRO (5.0) on the way in. Without them a batch
// is whatever recvmmsg finds queued, and what the test below counts
// depends on scheduling.
func requireCoalescing(t *testing.T) {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("UDP loopback unavailable: %v", err)
	}
	defer c.Close()
	raw, err := c.SyscallConn()
	if err != nil {
		t.Skipf("no raw socket access: %v", err)
	}
	const udpSegment, udpGRO = 103, 104
	var gso, gro error
	if err := raw.Control(func(fd uintptr) {
		gso = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment, 1200)
		gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	}); err != nil || gso != nil || gro != nil {
		t.Skipf("kernel without UDP_SEGMENT/UDP_GRO (%v, %v, %v): flights do not arrive as runs, nothing to count", err, gso, gro)
	}
}

// TestLoopbackOneAckAndOneWakePerEntry is the mechanism behind the bulk
// numbers, counted on real sockets: a 64 KiB write leaves as 57
// datagrams and arrives as a few coalesced runs, and the receiver
// answers each delivered batch once and wakes its reader once — not 57
// acks and 57 broadcasts per chunk, which is what a flush and a wake-up
// per datagram cost.
func TestLoopbackOneAckAndOneWakePerEntry(t *testing.T) {
	requireCoalescing(t)
	const chunk, chunks = 64 << 10, 256
	w := loopWorld(t, baseOpts()...)

	// Everything not from the server is the peer's. The counters live in
	// their transport's serialized context.
	var answers int // datagrams alice gets back: acks and window updates
	w.trA.SetPacketFilter(func(src transport.Endpoint) bool {
		if src != w.server {
			answers++
		}
		return true
	})
	var dgrams, entries int // what bob receives, and in how many entries
	counted := false
	endOfEntry := func() { counted = false }
	w.trB.SetPacketFilter(func(src transport.Endpoint) bool {
		if src != w.server {
			dgrams++
			if !counted {
				counted = true
				entries++
				w.trB.Defer(endOfEntry)
			}
		}
		return true
	})

	ln, err := w.bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		sess *stream.Session
		n    int64
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
		res.n, res.err = io.Copy(io.Discard, st)
	}()

	conn, err := w.alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if classOf(conn.Path()) != "direct" {
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
	buf := pattern(chunk)
	for i := 0; i < chunks; i++ {
		if _, err := st.Write(buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	res := <-got
	if res.sess != nil {
		defer res.sess.Close()
	}
	if res.err != nil || res.n != chunk*chunks {
		t.Fatalf("receiver got %d of %d bytes: %v", res.n, chunk*chunks, res.err)
	}

	var acksPerChunk float64
	w.trA.Invoke(func() { acksPerChunk = float64(answers) / chunks })
	var in, batches int
	w.trB.Invoke(func() { in, batches = dgrams, entries })
	wakeups := res.sess.Wakeups()
	t.Logf("%d chunks: %d datagrams delivered in %d entries, %d reader wake-ups, %.2f answering datagrams per chunk",
		chunks, in, batches, wakeups, acksPerChunk)

	if in < chunks*57 {
		t.Fatalf("receiver saw %d datagrams, want at least 57 per chunk", in)
	}
	if acksPerChunk > 8 {
		t.Errorf("%.1f answering datagrams per 64 KiB chunk, want at most 8 (one per delivered batch; an ack per datagram is 57)", acksPerChunk)
	}
	// Beyond one wake-up per delivered entry: the accept, the deadline,
	// the stream's and the session's end.
	if slack := uint64(8); wakeups > uint64(batches)+slack {
		t.Errorf("%d wake-ups over %d delivered entries, want at most one each (+%d)", wakeups, batches, slack)
	}
}
