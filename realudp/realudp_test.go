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

func newTransport(t *testing.T, opts ...Option) *Transport {
	t.Helper()
	tr, err := New("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestSeedsSurviveMathRandFold: two goroutines creating transports a
// few nanoseconds apart, drawing their counter values in either order,
// get different nonce streams. (The sum "time + counter<<32" this
// replaces gave both the same one at two nanoseconds' distance:
// math/rand folds its seed modulo 2³¹−1, where 2³² is 2.)
func TestSeedsSurviveMathRandFold(t *testing.T) {
	first := func(seed int64) uint64 { return rand.New(rand.NewSource(seed)).Uint64() }
	now := time.Now().UnixNano()
	if a, b := now+1<<32, now+2+0<<32; first(a) != first(b) {
		t.Fatalf("the collision this guards against is gone from math/rand: seeds %d and %d differ", a, b)
	}
	for n := uint64(1); n < 500; n++ {
		for d := int64(-8); d <= 8; d++ {
			for _, m := range []uint64{n - 1, n + 1} {
				if first(mixSeed(now, n)) == first(mixSeed(now+d, m)) {
					t.Fatalf("transports %d and %d created %d ns apart share a nonce stream", n, m, d)
				}
			}
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
		{"readBatch, GRO off", func() (int, error) { return rbc.readBatch(bufs, segs) }},
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
func echoPair(t *testing.T, opts ...Option) (ta *Transport, a, b transport.UDPConn) {
	t.Helper()
	ta = newTransport(t, opts...)
	tb := newTransport(t, opts...)
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

// testEchoStream pushes a numbered stream through an echo peer and
// checks every echo comes back intact — exercising receive-buffer
// reuse, batched delivery, and the deferred-send flush path.
func testEchoStream(t *testing.T, opts ...Option) {
	t.Helper()
	ta, a, b := echoPair(t, opts...)
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

func TestEchoStreamBatched(t *testing.T) {
	requireLoopback(t)
	testEchoStream(t)
}

func TestEchoStreamPortable(t *testing.T) {
	requireLoopback(t)
	testEchoStream(t, WithBatching(false))
}

func TestBatchedSelection(t *testing.T) {
	tr := newTransport(t)
	off := newTransport(t, WithBatching(false))
	if tr.Batched() != batchSupported {
		t.Fatalf("Batched()=%v, want platform default %v", tr.Batched(), batchSupported)
	}
	if off.Batched() {
		t.Fatal("WithBatching(false) did not disable batching")
	}
}

// TestScratchSender pins the capability the rendezvous hot path
// probes for: realudp conns release payloads before SendTo returns.
func TestScratchSender(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	var conn transport.UDPConn
	tr.Invoke(func() {
		c, err := tr.BindUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		conn = c
	})
	ss, ok := conn.(transport.ScratchSender)
	if !ok || !ss.ScratchSendOK() {
		t.Fatal("realudp conns must implement transport.ScratchSender")
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
	if !batchSupported {
		t.Skip("no batched path on this platform")
	}
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
	if !batchSupported {
		t.Skip("no batched path on this platform")
	}
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
	if !batchSupported {
		t.Skip("no batched path on this platform")
	}
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

// TestRecvSlabsRecycled: sockets opened and closed in sequence share
// receive slabs instead of zeroing a fresh MiB each, and a handler on
// a recycled slab sees its own datagram and not a byte more — the
// first socket's datagram is large, so every later slab holds its
// bytes beyond what the later sockets receive. The test runs each
// socket's read loop itself, to know when it has returned (and with it
// the slab).
func TestRecvSlabsRecycled(t *testing.T) {
	requireLoopback(t)
	if !batchSupported {
		t.Skip("no batched path on this platform")
	}
	probe, _ := loopSink(t)
	const sockets = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sockets; i++ {
		want := bytes.Repeat([]byte{byte(i + 1)}, 100)
		if i == 0 {
			want = bytes.Repeat([]byte{0xEE}, 60000)
		}
		tr := newTransport(t)
		uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		bc, err := NewBatchConn(uc)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan struct{})
		conn := &Conn{t: tr, c: uc, bc: bc}
		conn.onRecv = func(_ transport.Endpoint, p []byte) {
			if !bytes.Equal(p, want) || cap(p) != len(p) {
				t.Errorf("socket %d: got %d bytes (cap %d) starting %x, want %d of %x",
					i, len(p), cap(p), p[:min(2, len(p))], len(want), want[0])
			}
			close(got)
		}
		exited := make(chan struct{})
		go func() { conn.readLoop(); close(exited) }()
		if _, err := probe.WriteToUDPAddrPort(want, uc.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
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
	// A slab is a MiB. The race detector makes sync.Pool drop one Put
	// in four, at random: 16 ± 4 slabs more.
	grew := after.TotalAlloc - before.TotalAlloc
	if grew > sockets*recvBatch*recvSlot*5/8 {
		t.Errorf("%d sockets in sequence allocated %d KiB: receive slabs are not recycled", sockets, grew>>10)
	} else {
		t.Logf("%d sockets in sequence allocated %d KiB", sockets, grew>>10)
	}
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
