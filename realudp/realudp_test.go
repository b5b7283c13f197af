package realudp

import (
	"bytes"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"natpunch/transport"
)

// requireLoopback skips when the sandbox denies loopback UDP binds.
func requireLoopback(t *testing.T) {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	c.Close()
}

func newTransport(t *testing.T) *Transport {
	t.Helper()
	tr, err := New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestSeedsSurviveMathRandFold: two goroutines creating transports a
// few nanoseconds apart, drawing their counter values in either order,
// get different nonce streams. A seed that went through math/rand's own
// source would be folded modulo 2³¹−1, where 2³² is 2, so "time +
// counter<<32" gave both the same one at two nanoseconds' distance.
func TestSeedsSurviveMathRandFold(t *testing.T) {
	first := func(nanos int64, n uint64) uint64 { return rand.New(newSource(nanos, n)).Uint64() }
	now := time.Now().UnixNano()
	for n := uint64(1); n < 500; n++ {
		for d := int64(-8); d <= 8; d++ {
			for _, m := range []uint64{n - 1, n + 1} {
				if first(now, n) == first(now+d, m) {
					t.Fatalf("transports %d and %d created %d ns apart share a nonce stream", n, m, d)
				}
			}
		}
	}
}

// TestConcurrentTransportsDrawDifferentNonces: transports created back
// to back by two goroutines draw different first nonces.
func TestConcurrentTransportsDrawDifferentNonces(t *testing.T) {
	for round := 0; round < 1000; round++ {
		var nonces [2]uint64
		var wg sync.WaitGroup
		for g := range nonces {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := New("127.0.0.1:0")
				if err != nil {
					t.Error(err)
					return
				}
				nonces[g] = tr.Rand().Uint64()
			}()
		}
		wg.Wait()
		if nonces[0] == nonces[1] {
			t.Fatalf("round %d: two transports drew the same first nonce %#x", round, nonces[0])
		}
	}
}

// TestBindAfterCloseRefused pins the shutdown-race fix: a BindUDP
// that loses the race with Transport.Close must fail with ErrClosed
// instead of leaking a live socket and read-loop goroutine onto the
// nil'd conns list.
func TestBindAfterCloseRefused(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := tr.BindUDP(0)
	if err != ErrClosed {
		if c != nil {
			c.Close()
		}
		t.Fatalf("BindUDP after Close: conn=%v err=%v, want ErrClosed", c, err)
	}
}

// TestCloseRace pins the Conn.Close data race fix: Close writes the
// closed flag from outside the serialized engine context while the
// read loop checks it under the transport mutex. Run under -race.
func TestCloseRace(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	var conn transport.UDPConn
	tr.Invoke(func() {
		c, err := tr.BindUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		c.OnRecv(func(from transport.Endpoint, payload []byte) {})
		conn = c
	})
	// Traffic keeps the read loop hot while Close races it.
	probe, err := net.DialUDP("udp4", nil, ToUDPAddr(conn.Local()))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			probe.Write([]byte("ping"))
		}
	}()
	time.Sleep(time.Millisecond)
	conn.Close() // direct call, NOT under Invoke: the racy path
	wg.Wait()
}

// bindBatch binds a raw loopback socket outside any transport and
// wraps it for batched I/O.
func bindBatch(t *testing.T) (*net.UDPConn, *BatchConn) {
	t.Helper()
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uc.Close() })
	bc, err := NewBatchConn(uc)
	if err != nil {
		t.Fatal(err)
	}
	return uc, bc
}

// TestBatchConnRoundTrip drives WriteBatch/ReadBatch between two raw
// sockets and checks every datagram arrives intact with the right
// source address, on whichever implementation this platform selects —
// and one to a slot: the equal-size datagrams leave Linux as a UDP-GSO
// run, and a BatchConn from NewBatchConn never asks for the run back
// coalesced the way the transport's read loop does.
func TestBatchConnRoundTrip(t *testing.T) {
	requireLoopback(t)
	sender, sbc := bindBatch(t)
	receiver, rbc := bindBatch(t)
	dst := receiver.LocalAddr().(*net.UDPAddr).AddrPort()
	src := sender.LocalAddr().(*net.UDPAddr).AddrPort()

	const total = 37 // not a multiple of the batch size on purpose
	out := make([]Datagram, total)
	for i := range out {
		out[i] = Datagram{Addr: dst, Payload: []byte{byte(i), byte(i >> 8), 0xAB}}
	}
	bufs := make([]Datagram, 8)
	backing := make([][]byte, len(bufs))
	for i := range backing {
		backing[i] = make([]byte, 2048)
	}
	segs := make([]int, len(bufs))
	for _, read := range []struct {
		name string
		call func() (int, error)
	}{
		{"ReadBatch", func() (int, error) { return rbc.ReadBatch(bufs) }},
		// The read loop's call on a socket that never turned GRO on (a
		// kernel that refuses it): the same routine, one datagram a slot.
		{"readBatch, GRO off", func() (int, error) {
			n, _, err := rbc.readBatch(bufs, segs)
			return n, err
		}},
	} {
		n, err := sbc.WriteBatch(out)
		if err != nil || n != total {
			t.Fatalf("WriteBatch: n=%d err=%v", n, err)
		}
		got := make(map[byte]bool)
		slots := 0
		receiver.SetReadDeadline(time.Now().Add(5 * time.Second))
		for len(got) < total {
			for i := range bufs {
				bufs[i] = Datagram{Payload: backing[i]}
				segs[i] = -1
			}
			n, err := read.call()
			if err != nil {
				t.Fatalf("%s after %d/%d datagrams: %v", read.name, len(got), total, err)
			}
			for i := 0; i < n; i++ {
				if bufs[i].Addr.Addr().Unmap() != src.Addr().Unmap() || bufs[i].Addr.Port() != src.Port() {
					t.Fatalf("%s: datagram %d from %v, want %v", read.name, i, bufs[i].Addr, src)
				}
				p := bufs[i].Payload
				if len(p) != 3 || p[2] != 0xAB {
					t.Fatalf("%s: payload corrupted: %x", read.name, p)
				}
				if read.name != "ReadBatch" && segs[i] != 0 && segs[i] != len(p) {
					t.Fatalf("%s: a %d-byte datagram reported in segments of %d", read.name, len(p), segs[i])
				}
				got[p[0]] = true
			}
			slots += n
		}
		if slots != total {
			t.Fatalf("%s: %d datagrams filled %d slots", read.name, total, slots)
		}
	}
}

// echoPair wires two conns on separate transports: b echoes every
// datagram back to its sender.
func echoPair(t *testing.T) (ta *Transport, a, b transport.UDPConn) {
	t.Helper()
	ta = newTransport(t)
	tb := newTransport(t)
	ta.Invoke(func() {
		c, err := ta.BindUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		a = c
	})
	tb.Invoke(func() {
		c, err := tb.BindUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		c.OnRecv(func(from transport.Endpoint, payload []byte) {
			c.SendTo(from, payload)
		})
		b = c
	})
	for _, c := range []transport.UDPConn{a, b} {
		c.(*Conn).c.SetReadBuffer(1 << 20)
	}
	return ta, a, b
}

// TestEchoStreamBatched pushes a numbered stream through an echo peer
// and checks every echo comes back intact — exercising receive-buffer
// reuse, batched delivery, and the deferred-send flush path.
func TestEchoStreamBatched(t *testing.T) {
	requireLoopback(t)
	ta, a, b := echoPair(t)
	const total = 500
	recv := make(chan []byte, total)
	ta.Invoke(func() {
		a.OnRecv(func(from transport.Endpoint, payload []byte) {
			// The slice is only valid during the callback: copy.
			recv <- append([]byte(nil), payload...)
		})
	})
	// Windowed sends: a tight 500-datagram burst overruns default
	// socket buffers; the test measures integrity, not loss behavior.
	for base := 0; base < total; base += 50 {
		ta.Invoke(func() {
			for i := base; i < base+50 && i < total; i++ {
				if err := a.SendTo(b.Local(), []byte{byte(i), byte(i >> 8), 0x5A}); err != nil {
					t.Fatal(err)
				}
			}
		})
		time.Sleep(2 * time.Millisecond)
	}
	seen := make(map[int]bool)
	deadline := time.After(10 * time.Second)
	// Loopback is lossless in practice but UDP makes no promise; 90%
	// proves the data plane works without making the test flaky.
	for len(seen) < total*9/10 {
		select {
		case p := <-recv:
			if len(p) != 3 || p[2] != 0x5A {
				t.Fatalf("echo corrupted: %x", p)
			}
			seen[int(p[0])|int(p[1])<<8] = true
		case <-deadline:
			t.Fatalf("received %d/%d echoes", len(seen), total)
		}
	}
}

// TestScratchSender pins what the rendezvous and punch hot paths rely
// on when they send every datagram from one reused encoding: a realudp
// conn releases the payload before SendTo returns.
func TestScratchSender(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	sink, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	// Two lengths, so the flush cannot send the pair as one segmented
	// write straight from its own queue.
	scratch := []byte("sent first, from the scratch")
	tr.Invoke(func() {
		conn.SendTo(sinkEP, scratch)
		conn.SendTo(sinkEP, append(scratch[:0], "then this"...))
	})
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for _, want := range []string{"sent first, from the scratch", "then this"} {
		n, _, err := sink.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("sink read: %v", err)
		}
		if got := string(buf[:n]); got != want {
			t.Fatalf("sink got %q, want %q", got, want)
		}
	}
}

// TestRefusedDatagramLostAlone: a datagram the kernel refuses is lost
// on its own, not with the rest of its entry. One Invoke alternates
// sends to a destination the kernel refuses with sends to a sink, then
// sends a run of four equal-size datagrams to the refused destination
// (on Linux, one segmented send that fails whole) and one more to the
// sink; all four sink datagrams arrive, in order.
func TestRefusedDatagramLostAlone(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	sink, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	// Port 0: UDP refuses it (EINVAL) before any route is looked up, so
	// nothing can leave the host.
	refused := transport.Endpoint{Addr: sinkEP.Addr}
	tr.Invoke(func() {
		for i := byte(0); i < 3; i++ {
			conn.SendTo(refused, []byte{0xBA, 0xD0, i})
			conn.SendTo(sinkEP, []byte{i})
		}
		for i := byte(0); i < 4; i++ {
			conn.SendTo(refused, fill(32, i))
		}
		conn.SendTo(sinkEP, []byte{3})
	})
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for i := byte(0); i < 4; i++ {
		n, _, err := sink.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("the sink got %d of 4 datagrams: %v", i, err)
		}
		if n != 1 || buf[0] != i {
			t.Fatalf("sink datagram %d is %x, want %x", i, buf[:n], i)
		}
	}
}

// TestPerDatagramBatchConn drives the BatchConn routines that platforms
// without kernel batching run — writeEach and readOne — on this one.
// Datagrams arrive in the order they were written, each read fills one
// entry and re-slices its payload to the datagram's length, and a write
// stops at the first datagram the kernel refuses, reporting how many
// went before it and the error.
func TestPerDatagramBatchConn(t *testing.T) {
	requireLoopback(t)
	sender, sbc := bindBatch(t)
	receiver, rbc := bindBatch(t)
	src := sender.LocalAddr().(*net.UDPAddr).AddrPort()
	dst := receiver.LocalAddr().(*net.UDPAddr).AddrPort()
	refused := netip.AddrPortFrom(dst.Addr(), 0) // see TestRefusedDatagramLostAlone

	out := []Datagram{
		{Addr: dst, Payload: fill(300, 0x10)},
		{Addr: dst, Payload: fill(7, 0x20)},
		{Addr: dst},
		{Addr: dst, Payload: fill(1200, 0x30)},
		{Addr: refused, Payload: fill(5, 0x40)},
		{Addr: dst, Payload: fill(9, 0x50)},
	}
	const before = 4 // datagrams ahead of the refused one
	if n, err := sbc.writeEach(out); n != before || err == nil {
		t.Fatalf("writeEach = %d, %v; want %d and the refused datagram's error", n, err, before)
	}

	receiver.SetReadDeadline(time.Now().Add(5 * time.Second))
	spare := make([]byte, 2048)
	ms := make([]Datagram, 2)
	for i, want := range out[:before] {
		ms[0] = Datagram{Payload: make([]byte, 2048)}
		ms[1] = Datagram{Payload: spare}
		n, err := rbc.readOne(ms)
		if n != 1 || err != nil {
			t.Fatalf("readOne for datagram %d = %d, %v; want 1, nil", i, n, err)
		}
		if !bytes.Equal(ms[0].Payload, want.Payload) { // a length too, in a 2 KiB buffer
			t.Fatalf("datagram %d: %d bytes starting %x, want %d starting %x",
				i, len(ms[0].Payload), ms[0].Payload[:min(4, len(ms[0].Payload))], len(want.Payload), want.Payload[:min(4, len(want.Payload))])
		}
		if ms[0].Addr.Addr().Unmap() != src.Addr().Unmap() || ms[0].Addr.Port() != src.Port() {
			t.Fatalf("datagram %d from %v, want %v", i, ms[0].Addr, src)
		}
		if ms[1].Addr.IsValid() || len(ms[1].Payload) != len(spare) {
			t.Fatalf("readOne touched entry 1: %v, %d bytes", ms[1].Addr, len(ms[1].Payload))
		}
	}

	// Nothing behind the refused datagram was sent.
	receiver.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	ms[0] = Datagram{Payload: make([]byte, 2048)}
	if n, err := rbc.readOne(ms); n != 0 || err == nil {
		t.Fatalf("readOne after the refused datagram = %d, %v (%x); want 0 and a timeout", n, err, ms[0].Payload)
	}
	if n, err := rbc.readOne(nil); n != 0 || err != nil {
		t.Fatalf("readOne of no entries = %d, %v; want 0, nil", n, err)
	}
}

// loopSink binds a plain loopback socket for a transport conn to send
// to, outside any transport.
func loopSink(t *testing.T) (*net.UDPConn, transport.Endpoint) {
	t.Helper()
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	sink.SetReadBuffer(1 << 20)
	ep, _ := ToEndpoint(sink.LocalAddr().(*net.UDPAddr))
	return sink, ep
}

func bindConn(t *testing.T, tr *Transport) *Conn {
	t.Helper()
	var conn *Conn
	tr.Invoke(func() {
		c, err := tr.BindUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		conn = c.(*Conn)
	})
	return conn
}

// TestDeferredSendScratchReuse proves the batch queue copies payloads:
// a sender that reuses its encode scratch between SendTo calls inside
// one entry into the serialized context — a delivery batch, the way
// the rendezvous relay does, or an Invoke body, the way a session's
// Send does — must not see its earlier datagrams corrupted.
func TestDeferredSendScratchReuse(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	sink, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	scratch := make([]byte, 4)
	burst := func() {
		for i := byte(0); i < 4; i++ {
			scratch[0], scratch[1], scratch[2], scratch[3] = i, i, i, i
			conn.SendTo(sinkEP, scratch)
		}
	}
	expectBurst := func(t *testing.T) {
		sink.SetReadDeadline(time.Now().Add(5 * time.Second))
		seen := make(map[byte]bool)
		buf := make([]byte, 16)
		for len(seen) < 4 {
			n, _, err := sink.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("sink read after %d/4 distinct payloads: %v", len(seen), err)
			}
			if n != 4 || buf[0] != buf[3] {
				t.Fatalf("corrupted deferred datagram: %x", buf[:n])
			}
			seen[buf[0]] = true
		}
	}
	t.Run("delivery", func(t *testing.T) {
		tr.Invoke(func() {
			conn.OnRecv(func(from transport.Endpoint, payload []byte) { burst() })
		})
		probe, err := net.DialUDP("udp4", nil, ToUDPAddr(conn.Local()))
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		if _, err := probe.Write([]byte("go")); err != nil {
			t.Fatal(err)
		}
		expectBurst(t)
	})
	t.Run("invoke", func(t *testing.T) {
		tr.Invoke(burst)
		expectBurst(t)
	})
}

// TestSendBatchPerEntry: the datagrams one Invoke body or one timer
// callback sends leave as one send batch — in order, in at most
// ⌈N/sendBatch⌉ WriteBatch calls, and with nothing left queued once
// the entry has returned.
func TestSendBatchPerEntry(t *testing.T) {
	requireLoopback(t)
	const n = 2*sendBatch + 6
	tr := newTransport(t)
	sink, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	burst := func() {
		for i := 0; i < n; i++ {
			if err := conn.SendTo(sinkEP, []byte{byte(i), 0xA5, 0x5A, byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	}
	// state reads the conn's batch counters the way engine code would.
	state := func() (flushes, queued int) {
		tr.Invoke(func() { flushes, queued = conn.flushes, conn.npend })
		return
	}
	expectInOrder := func(t *testing.T, wait time.Duration) {
		t.Helper()
		sink.SetReadDeadline(time.Now().Add(wait))
		buf := make([]byte, 16)
		for i := 0; i < n; i++ {
			got, _, err := sink.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("datagram %d of %d: %v", i, n, err)
			}
			if got != 4 || buf[0] != byte(i) || buf[3] != byte(i) {
				t.Fatalf("datagram %d of %d is %x", i, n, buf[:got])
			}
		}
	}
	want := (n + sendBatch - 1) / sendBatch

	t.Run("invoke", func(t *testing.T) {
		before, _ := state()
		tr.Invoke(burst)
		tr.mu.Lock() // not state(): another Invoke would flush what this one left
		queued := conn.npend
		tr.mu.Unlock()
		if queued != 0 {
			t.Errorf("%d datagrams still queued when Invoke returned", queued)
		}
		// Loopback delivers inside the send call: everything is already
		// in the sink's buffer, no waiting needed beyond scheduling.
		expectInOrder(t, time.Second)
		if after, _ := state(); after-before > want {
			t.Errorf("%d datagrams took %d WriteBatch calls, want at most %d", n, after-before, want)
		}
	})
	t.Run("timer", func(t *testing.T) {
		before, _ := state()
		tr.Invoke(func() { tr.After(0, burst) })
		expectInOrder(t, 5*time.Second)
		after, queued := state()
		if queued != 0 {
			t.Errorf("%d datagrams still queued after the timer callback returned", queued)
		}
		if after-before > want {
			t.Errorf("%d datagrams took %d WriteBatch calls, want at most %d", n, after-before, want)
		}
	})
}

// TestSendBatchZeroAlloc: queueing a datagram — copied in by SendTo, or
// built in place between Reserve and Commit — and flushing the batch —
// one sendmmsg for a lone datagram, one segmented send for a run, a
// flush in the middle of a 64 KiB write's 57 — allocate nothing once
// the arena, the slots and the syscall scratch have grown.
func TestSendBatchZeroAlloc(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	_, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	payload := make([]byte, 1152)
	sends := map[string]func(){
		"SendTo":         func() { conn.SendTo(sinkEP, payload) },
		"Reserve+Commit": func() { conn.Commit(sinkEP, append(conn.Reserve(), payload...)) },
	}
	for how, send := range sends {
		for _, n := range []int{1, 8, 57} {
			burst := func() {
				for i := 0; i < n; i++ {
					send()
				}
			}
			invoke := func() { tr.Invoke(burst) }
			invoke()
			if allocs := testing.AllocsPerRun(200, invoke); allocs != 0 {
				t.Errorf("Invoke sending %d datagrams by %s allocates %v/op in steady state, want 0", n, how, allocs)
			}
		}
	}
}

// TestSendAfterCloseStillErrors: a closed conn's SendTo is not parked
// in the batch to fail silently later; the caller gets the error.
func TestSendAfterCloseStillErrors(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	_, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	var err error
	tr.Invoke(func() {
		conn.Close()
		err = conn.SendTo(sinkEP, []byte("late"))
	})
	if err == nil {
		t.Fatal("SendTo on a closed conn inside Invoke returned nil")
	}
}

// runLoop binds a loopback socket on tr whose read loop the test runs
// itself, so that it knows when the loop has returned (and with it the
// slots) and, through waitParked, when the loop waits on the poller.
// The socket is closed at cleanup if the test has not closed it.
func runLoop(t *testing.T, tr *Transport) (conn *Conn, exited <-chan struct{}) {
	t.Helper()
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBatchConn(uc)
	if err != nil {
		uc.Close()
		t.Fatal(err)
	}
	local, _ := ToEndpoint(uc.LocalAddr().(*net.UDPAddr))
	conn = &Conn{t: tr, c: uc, bc: bc, local: local}
	done := make(chan struct{})
	go func() { conn.readLoop(); close(done) }()
	t.Cleanup(func() { conn.Close(); <-done })
	return conn, done
}

// waitParked returns once the read loop runLoop started is parked on
// the runtime poller, which it reaches only after a read found its
// socket empty.
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
			if bytes.Contains(g, []byte("created by natpunch/realudp.runLoop")) && bytes.Contains(g, []byte(" [IO wait")) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("read loop never parked on the poller")
		}
		runtime.Gosched()
	}
}

// TestRecvSlotsRecycled: sockets opened and closed in sequence share
// receive slots instead of zeroing a fresh 64 KiB each, and a handler
// on a recycled slot sees its own datagram and not a byte more — the
// first socket's datagram is large, so every later slot holds its bytes
// beyond what the later sockets receive.
func TestRecvSlotsRecycled(t *testing.T) {
	requireLoopback(t)
	probe, _ := loopSink(t)
	const sockets = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sockets; i++ {
		want := bytes.Repeat([]byte{byte(i + 1)}, 100)
		if i == 0 {
			want = bytes.Repeat([]byte{0xEE}, 60000)
		}
		conn, exited := runLoop(t, newTransport(t))
		got := make(chan struct{})
		conn.t.Invoke(func() {
			conn.OnRecv(func(_ transport.Endpoint, p []byte) {
				if !bytes.Equal(p, want) || cap(p) != len(p) {
					t.Errorf("socket %d: got %d bytes (cap %d) starting %x, want %d of %x",
						i, len(p), cap(p), p[:min(2, len(p))], len(want), want[0])
				}
				close(got)
			})
		})
		if _, err := probe.WriteToUDPAddrPort(want, toAddrPort(conn.Local())); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("socket %d: datagram not delivered", i)
		}
		conn.Close()
		<-exited
	}
	runtime.ReadMemStats(&after)
	// Everything the sockets allocated, counted in slots: one a socket
	// without recycling. The race detector makes sync.Pool drop one Put
	// in four, at random (16 ± 4 slots more), and each P's private
	// entry may keep one from the next socket's loop.
	grew := after.TotalAlloc - before.TotalAlloc
	if grew > sockets*recvSlot*5/8 {
		t.Errorf("%d sockets in sequence allocated %d KiB (%d slots): receive slots are not recycled",
			sockets, grew>>10, grew/recvSlot)
	} else {
		t.Logf("%d sockets in sequence allocated %d KiB (%d slots)", sockets, grew>>10, grew/recvSlot)
	}
}

// TestIdleSocketsHoldOneSlot: a socket that has received one datagram
// holds one receive slot, not the sixteen (a MiB) that a busy socket may
// grow to: 64 sockets on one transport grow the live heap by at most 64
// slots, plus 8 KiB a socket for everything else a socket keeps.
func TestIdleSocketsHoldOneSlot(t *testing.T) {
	requireLoopback(t)
	probe, _ := loopSink(t)
	tr := newTransport(t)
	const sockets = 64
	runtime.GC()
	runtime.GC() // twice: a pooled slot outlives one collection
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := make(chan struct{}, sockets)
	conns := make([]transport.UDPConn, sockets)
	tr.Invoke(func() {
		for i := range conns {
			c, err := tr.BindUDP(0)
			if err != nil {
				t.Fatal(err)
			}
			c.OnRecv(func(transport.Endpoint, []byte) { got <- struct{}{} })
			conns[i] = c
		}
	})
	for _, c := range conns {
		if _, err := probe.WriteToUDPAddrPort([]byte("keep-alive"), toAddrPort(c.Local())); err != nil {
			t.Fatal(err)
		}
	}
	for range conns {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("datagram not delivered")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(sockets * (recvSlot + 8<<10)); grew > limit {
		t.Errorf("%d idle sockets grew the live heap by %d KiB, want at most %d KiB: more than one receive slot each",
			sockets, grew>>10, limit>>10)
	} else {
		t.Logf("%d idle sockets grew the live heap by %d KiB (%d slots' worth)", sockets, grew>>10, grew/recvSlot)
	}
	runtime.KeepAlive(conns)
}

// TestReadLoopGrowsOnBacklog: a read loop widens only for a backlog. A
// socket whose handler blocks on its first datagram while 40 more queue
// up reaches recvBatch slots and delivers all 41 byte-exact and in
// order; one that gets 200 datagrams, each sent once the one before it
// was delivered and the loop is back waiting on the poller, stays at
// one slot.
func TestReadLoopGrowsOnBacklog(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("one datagram per read off Linux: the read loop never widens")
	}
	requireLoopback(t)
	probe, _ := loopSink(t)
	// Datagram i: 100+i bytes, so that no two can coalesce (UDP GRO
	// merges equal sizes only) and a moved or swapped one shows.
	dgram := func(i int) []byte { return fill(100+i, byte(i)) }

	t.Run("backlog", func(t *testing.T) {
		tr := newTransport(t)
		conn, _ := runLoop(t, tr)
		const queued = 40
		var got [][]byte
		first, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		t.Cleanup(func() { // before the transport's: a blocked handler holds its mutex
			select {
			case <-release:
			default:
				close(release)
			}
		})
		tr.Invoke(func() {
			conn.OnRecv(func(_ transport.Endpoint, p []byte) {
				got = append(got, append([]byte(nil), p...))
				switch len(got) {
				case 1:
					close(first)
					<-release
				case 1 + queued:
					close(done)
				}
			})
		})
		to := toAddrPort(conn.Local())
		for i := 0; i <= queued; i++ {
			if _, err := probe.WriteToUDPAddrPort(dgram(i), to); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				select {
				case <-first:
				case <-time.After(5 * time.Second):
					t.Fatal("first datagram not delivered")
				}
			}
		}
		close(release)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d datagrams not all delivered", 1+queued)
		}
		var w int
		tr.Invoke(func() {
			for i, p := range got {
				if !bytes.Equal(p, dgram(i)) {
					t.Errorf("datagram %d: %d bytes starting %x, want %d starting %x", i, len(p), p[0], 100+i, byte(i))
				}
			}
			w = conn.width
		})
		t.Logf("%d datagrams queued behind a blocked handler: the loop reads %d slots at a time", queued, w)
		if w != recvBatch {
			t.Errorf("read loop holds %d slots after a %d-datagram backlog, want %d", w, queued, recvBatch)
		}
	})

	t.Run("one at a time", func(t *testing.T) {
		tr := newTransport(t)
		conn, _ := runLoop(t, tr)
		const n = 200
		delivered := make(chan []byte, 1)
		tr.Invoke(func() {
			conn.OnRecv(func(_ transport.Endpoint, p []byte) { delivered <- append([]byte(nil), p...) })
		})
		to := toAddrPort(conn.Local())
		for i := 0; i < n; i++ {
			waitParked(t)
			if _, err := probe.WriteToUDPAddrPort(dgram(i), to); err != nil {
				t.Fatal(err)
			}
			select {
			case p := <-delivered:
				if !bytes.Equal(p, dgram(i)) {
					t.Fatalf("datagram %d: %d bytes, want %d", i, len(p), 100+i)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("datagram %d not delivered", i)
			}
		}
		var w int
		tr.Invoke(func() { w = conn.width })
		t.Logf("%d datagrams, each once the one before it was delivered: the loop reads %d slot(s) at a time", n, w)
		if w != 1 {
			t.Errorf("read loop holds %d slots after %d datagrams that never queued, want 1", w, n)
		}
	})
}

func TestEndpointConversions(t *testing.T) {
	ep := transport.MustParseEndpoint("155.99.25.11:62000")
	ap := toAddrPort(ep)
	if ap.String() != "155.99.25.11:62000" {
		t.Fatalf("toAddrPort: %v", ap)
	}
	back, ok := fromAddrPort(ap)
	if !ok || back != ep {
		t.Fatalf("fromAddrPort: %v %v", back, ok)
	}
	// 4-in-6 mapped forms (as some stacks report loopback sources)
	// unmap to the same endpoint.
	mapped := netip.AddrPortFrom(netip.AddrFrom16(ap.Addr().As16()), ap.Port())
	back, ok = fromAddrPort(mapped)
	if !ok || back != ep {
		t.Fatalf("fromAddrPort(mapped): %v %v", back, ok)
	}
	if _, ok := fromAddrPort(netip.MustParseAddrPort("[::1]:9")); ok {
		t.Fatal("IPv6 source accepted")
	}
}

// TestWriteBatchGSORuns pins the GSO span carving in WriteBatch: a
// batch mixing same-destination equal-size runs, a trailing shorter
// segment, destination switches, and odd singletons must arrive as
// exactly the datagrams that were handed in — the segmented fast path
// must never move a datagram boundary.
func TestWriteBatchGSORuns(t *testing.T) {
	requireLoopback(t)
	bind := func() (*net.UDPConn, *BatchConn) {
		uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { uc.Close() })
		bc, err := NewBatchConn(uc)
		if err != nil {
			t.Fatal(err)
		}
		uc.SetReadBuffer(1 << 20)
		return uc, bc
	}
	sinkA, _ := bind()
	sinkB, _ := bind()
	_, src := bind()
	addrA := sinkA.LocalAddr().(*net.UDPAddr).AddrPort()
	addrB := sinkB.LocalAddr().(*net.UDPAddr).AddrPort()

	pay := func(n, fill int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(fill)
		}
		return b
	}
	var batch []Datagram
	// run of 5 equal to A, then a shorter trailing segment
	for i := 0; i < 5; i++ {
		batch = append(batch, Datagram{Addr: addrA, Payload: pay(32, i)})
	}
	batch = append(batch, Datagram{Addr: addrA, Payload: pay(7, 5)})
	// singleton to B breaks the run
	batch = append(batch, Datagram{Addr: addrB, Payload: pay(11, 6)})
	// growing sizes to A never form a run (next > seg)
	batch = append(batch, Datagram{Addr: addrA, Payload: pay(3, 7)})
	batch = append(batch, Datagram{Addr: addrA, Payload: pay(9, 8)})
	// run of 2 to B
	batch = append(batch, Datagram{Addr: addrB, Payload: pay(48, 9)})
	batch = append(batch, Datagram{Addr: addrB, Payload: pay(48, 10)})

	if n, err := src.WriteBatch(batch); err != nil || n != len(batch) {
		t.Fatalf("WriteBatch = %d, %v; want %d", n, err, len(batch))
	}

	drain := func(uc *net.UDPConn, want []Datagram) {
		uc.SetReadDeadline(time.Now().Add(3 * time.Second))
		buf := make([]byte, 2048)
		for k, d := range want {
			n, _, err := uc.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("datagram %d: %v", k, err)
			}
			if !bytes.Equal(buf[:n], d.Payload) {
				t.Fatalf("datagram %d: got %d bytes fill %d, want %d bytes fill %d",
					k, n, buf[0], len(d.Payload), d.Payload[0])
			}
		}
	}
	var wantA, wantB []Datagram
	for _, d := range batch {
		if d.Addr == addrA {
			wantA = append(wantA, d)
		} else {
			wantB = append(wantB, d)
		}
	}
	drain(sinkA, wantA)
	drain(sinkB, wantB)
}
