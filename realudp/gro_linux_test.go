package realudp

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"natpunch/transport"
)

// The coalesced receive: a 64 KiB stream write is 56 full datagrams
// and a short tail, sent as one UDP-GSO run.
const (
	groSegs = 57
	groSeg  = 1152
	groTail = 700
)

// groRun builds the run, every byte a function of its datagram and
// offset so a moved boundary or a swapped datagram shows.
func groRun(dst netip.AddrPort) []Datagram {
	run := make([]Datagram, groSegs)
	for i := range run {
		p := make([]byte, groSeg)
		if i == groSegs-1 {
			p = p[:groTail]
		}
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		run[i] = Datagram{Addr: dst, Payload: p}
	}
	return run
}

// groPair binds a transport conn whose read loop coalesces and a raw
// batched sender aimed at it, or skips: UDP_GRO needs Linux 5.0, and
// the sender's UDP_SEGMENT 4.18.
func groPair(t *testing.T) (*Transport, *Conn, *BatchConn, netip.AddrPort) {
	t.Helper()
	requireLoopback(t)
	tr := newTransport(t)
	conn := bindConn(t, tr)
	_, sbc := bindBatch(t)
	dst := toAddrPort(conn.Local())

	// One delivered datagram orders the read loop's enableGRO before
	// the flag is read here, and proves the segmented send works.
	probed := make(chan struct{}, 2)
	tr.Invoke(func() {
		conn.OnRecv(func(transport.Endpoint, []byte) { probed <- struct{}{} })
	})
	probe := []Datagram{{Addr: dst, Payload: []byte{1}}, {Addr: dst, Payload: []byte{2}}}
	if _, err := sbc.WriteBatch(probe); err != nil {
		t.Fatal(err)
	}
	for range probe {
		select {
		case <-probed:
		case <-time.After(5 * time.Second):
			t.Fatal("probe datagram not delivered")
		}
	}
	var gro bool
	tr.Invoke(func() {
		gro = conn.bc.recv.gro
		conn.OnRecv(nil)
	})
	if !gro {
		t.Skip("kernel refused UDP_GRO: the read loop runs one datagram per slot")
	}
	if sbc.send.gsoOff {
		t.Skip("kernel refused UDP_SEGMENT: nothing on loopback coalesces")
	}
	return tr, conn, sbc, dst
}

// collector records every delivered payload (copied: the slice dies
// with the callback) until a one-byte sentinel from the same sender,
// which loopback delivers after everything sent before it.
type collector struct {
	got  [][]byte
	done chan struct{}
}

var groSentinel = []byte{0xED}

func collect(tr *Transport, conn *Conn, each func(payload []byte)) *collector {
	c := &collector{done: make(chan struct{})}
	tr.Invoke(func() {
		conn.OnRecv(func(_ transport.Endpoint, p []byte) {
			if bytes.Equal(p, groSentinel) {
				close(c.done)
				return
			}
			c.got = append(c.got, append([]byte(nil), p...))
			if each != nil {
				each(p)
			}
		})
	})
	return c
}

func (c *collector) wait(t *testing.T) {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("sentinel not delivered after %d datagrams", len(c.got))
	}
}

func send(t *testing.T, bc *BatchConn, ms ...Datagram) {
	t.Helper()
	if n, err := bc.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d", n, err, len(ms))
	}
}

// expectRun checks got against the run with the datagrams in skip
// left out: byte-exact, in order, nothing else.
func expectRun(t *testing.T, got [][]byte, run []Datagram, skip ...int) {
	t.Helper()
	var want [][]byte
	for i := range run {
		dropped := false
		for _, s := range skip {
			dropped = dropped || s == i
		}
		if !dropped {
			want = append(want, run[i].Payload)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d callbacks, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("callback %d: %d bytes starting %x, want %d bytes starting %x",
				i, len(got[i]), got[i][:min(4, len(got[i]))], len(want[i]), want[i][:4])
		}
	}
}

func slotsOf(tr *Transport, conn *Conn) (n int) {
	tr.Invoke(func() { n = conn.slots })
	return
}

// TestGRORunDeliveredPerDatagram: a 57-datagram GSO run arrives as 57
// callbacks, byte-exact and in order, through fewer recvmmsg slots
// than datagrams.
func TestGRORunDeliveredPerDatagram(t *testing.T) {
	tr, conn, sbc, dst := groPair(t)
	run := groRun(dst)
	before := slotsOf(tr, conn)
	c := collect(tr, conn, nil)
	send(t, sbc, run...)
	send(t, sbc, Datagram{Addr: dst, Payload: groSentinel})
	c.wait(t)
	expectRun(t, c.got, run)
	if slots := slotsOf(tr, conn) - before - 1; slots >= groSegs { // less the sentinel's
		t.Errorf("%d datagrams took %d recvmmsg slots: nothing was coalesced", groSegs, slots)
	} else {
		t.Logf("%d datagrams in %d slot(s)", groSegs, slots)
	}
}

// TestGROFilterPerSegment: a stateful filter is asked once per
// datagram of a coalesced run, and rejecting its k-th call drops the
// k-th datagram and nothing else.
func TestGROFilterPerSegment(t *testing.T) {
	tr, conn, sbc, dst := groPair(t)
	run := groRun(dst)
	const k = 23
	calls := 0
	tr.SetPacketFilter(func(transport.Endpoint) bool {
		calls++
		return calls != k+1
	})
	c := collect(tr, conn, nil)
	send(t, sbc, run...)
	send(t, sbc, Datagram{Addr: dst, Payload: groSentinel})
	c.wait(t)
	expectRun(t, c.got, run, k)
	if calls != groSegs+1 {
		t.Errorf("filter asked %d times for %d datagrams and a sentinel", calls, groSegs)
	}
}

// TestGROCloseMidRun: a handler that closes its conn on datagram j of
// a coalesced run gets no datagram after j.
func TestGROCloseMidRun(t *testing.T) {
	tr, conn, sbc, dst := groPair(t)
	run := groRun(dst)
	const j = 30
	closing := make(chan struct{})
	n := 0
	c := collect(tr, conn, func([]byte) {
		if n++; n == j+1 {
			conn.Close()
			close(closing)
		}
	})
	send(t, sbc, run...)
	select {
	case <-closing:
	case <-time.After(5 * time.Second):
		t.Fatal("datagram j never delivered")
	}
	// Invoke returns after the batch that held datagram j has, and the
	// loop reads nothing more from a closed socket.
	var got [][]byte
	tr.Invoke(func() { got = c.got })
	skip := make([]int, 0, groSegs)
	for i := j + 1; i < groSegs; i++ {
		skip = append(skip, i)
	}
	expectRun(t, got, run, skip...)
}

// TestGROSegmentsCapLimited: every payload's capacity ends where the
// datagram does, so a handler that appends to it cannot write into
// the next segment of the run.
func TestGROSegmentsCapLimited(t *testing.T) {
	tr, conn, sbc, dst := groPair(t)
	run := groRun(dst)
	c := collect(tr, conn, func(p []byte) {
		if cap(p) != len(p) {
			t.Errorf("%d-byte payload has capacity %d", len(p), cap(p))
		}
		p = append(p, 0xFF, 0xFF, 0xFF, 0xFF)
		p[len(p)-1] = 0xFE
	})
	send(t, sbc, run...)
	send(t, sbc, Datagram{Addr: dst, Payload: groSentinel})
	c.wait(t)
	expectRun(t, c.got, run)
}

// TestGROInterleavedSenders: single datagrams from a second sender
// and zero-length datagrams, mixed in with coalesced runs, still
// arrive exactly once each.
func TestGROInterleavedSenders(t *testing.T) {
	tr, conn, sbc, dst := groPair(t)
	uc2, second := loopSink(t)

	const singles = 20
	seen := make(map[byte]int) // the second sender's, by first byte
	var runBytes, empties, total int
	arrived := make(chan struct{}, 1)
	want := 2*groSegs + 2 + 2*singles
	tr.Invoke(func() {
		conn.OnRecv(func(from transport.Endpoint, p []byte) {
			switch {
			case len(p) == 0:
				empties++
			case from == second:
				seen[p[0]]++
			default:
				runBytes += len(p)
			}
			if total++; total == want {
				arrived <- struct{}{}
			}
		})
	})
	run := groRun(dst)
	for round := 0; round < 2; round++ {
		send(t, sbc, run...)
		send(t, sbc, Datagram{Addr: dst}) // zero-length, after a run
		for i := 0; i < singles; i++ {
			p := bytes.Repeat([]byte{byte(round*singles + i)}, 1+i*50)
			if i%10 == 5 {
				p = nil
			}
			if _, err := uc2.WriteToUDPAddrPort(p, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
	}
	time.Sleep(20 * time.Millisecond) // a duplicate would trail its original
	tr.Invoke(func() {
		if total != want {
			t.Errorf("%d callbacks, want %d", total, want)
		}
		if want := 2 * ((groSegs-1)*groSeg + groTail); runBytes != want {
			t.Errorf("runs delivered %d bytes, want %d", runBytes, want)
		}
		if want := 2 + 2*singles/10; empties != want {
			t.Errorf("%d zero-length datagrams, want %d", empties, want)
		}
		if want := 2*singles - 2*singles/10; len(seen) != want {
			t.Errorf("%d distinct single datagrams, want %d", len(seen), want)
		}
		for b, n := range seen {
			if n != 1 {
				t.Errorf("single datagram %d delivered %d times", b, n)
			}
		}
	})
}

// TestGROTruncatedSlotDropped: a coalesced run that does not fit its
// slot is flagged MSG_TRUNC and comes back as loss — not as one giant
// datagram, not as its first datagrams and a cut one — while the
// datagram behind it arrives in a buffer of its own. (The transport's
// 64 KiB slots fit anything the kernel coalesces; small ones stand in.)
func TestGROTruncatedSlotDropped(t *testing.T) {
	requireLoopback(t)
	ruc, rbc := bindBatch(t)
	_, sbc := bindBatch(t)
	rbc.enableGRO()
	if !rbc.recv.gro {
		t.Skip("kernel refused UDP_GRO")
	}
	dst := ruc.LocalAddr().(*net.UDPAddr).AddrPort()
	send(t, sbc, groRun(dst)[:10]...)
	if sbc.send.gsoOff {
		t.Skip("kernel refused UDP_SEGMENT: nothing on loopback coalesces")
	}
	send(t, sbc, Datagram{Addr: dst, Payload: []byte("behind")})

	ms := make([]Datagram, 4)
	segs := make([]int, len(ms))
	for i := range ms {
		ms[i].Payload = make([]byte, 2048)
	}
	ruc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := rbc.readBatch(ms, segs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || string(ms[0].Payload) != "behind" || segs[0] != len("behind") {
		t.Fatalf("readBatch = %d slots, first %d bytes in segments of %d; want the one datagram behind the truncated run",
			n, len(ms[0].Payload), segs[0])
	}
	for i := 1; i < len(ms); i++ {
		if len(ms[i].Payload) != 2048 || &ms[i].Payload[0] == &ms[0].Payload[0] {
			t.Fatalf("entry %d lost its buffer to the compaction", i)
		}
	}
}

// TestRecvBatchZeroAlloc: receiving a coalesced run and delivering its
// 57 datagrams allocates nothing once the syscall scratch has grown.
func TestRecvBatchZeroAlloc(t *testing.T) {
	tr, conn, sbc, dst := groPair(t)
	run := groRun(dst)
	n := 0
	delivered := make(chan struct{}, 1)
	tr.Invoke(func() {
		conn.OnRecv(func(_ transport.Endpoint, p []byte) {
			if n++; n%groSegs == 0 {
				delivered <- struct{}{}
			}
		})
	})
	burst := func() {
		sbc.WriteBatch(run)
		<-delivered
	}
	burst()
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Errorf("sending and delivering a %d-datagram run allocates %v/op in steady state, want 0", groSegs, allocs)
	}
}

// TestRefusedRunKeepsGSO: a run of equal-size datagrams to a
// destination the kernel refuses fails its segmented send with EINVAL,
// as a kernel that cannot segment would, but costs the socket nothing
// beyond those datagrams: the run behind it in the same entry still
// leaves as one segmented send (one coalesced slot at a GRO receiver),
// and GSO stays on.
func TestRefusedRunKeepsGSO(t *testing.T) {
	tr, conn, _, dst := groPair(t)
	trS := newTransport(t)
	sender := bindConn(t, trS)
	to, _ := fromAddrPort(dst)
	refused := transport.Endpoint{Addr: to.Addr} // see TestRefusedDatagramLostAlone
	var run []Datagram
	for i := byte(0); i < 4; i++ {
		run = append(run, Datagram{Payload: fill(32, 0x10*i)})
	}
	before := slotsOf(tr, conn)
	c := collect(tr, conn, nil)
	trS.Invoke(func() {
		for i := range run {
			sender.SendTo(refused, run[i].Payload)
		}
		for i := range run {
			sender.SendTo(to, run[i].Payload)
		}
	})
	trS.Invoke(func() { sender.SendTo(to, groSentinel) })
	c.wait(t)
	expectRun(t, c.got, run)
	var off bool
	trS.Invoke(func() { off = sender.bc.send.gsoOff })
	if slots := slotsOf(tr, conn) - before - 1; off || slots != 1 { // less the sentinel's
		t.Errorf("after a run to a refused destination GSO is off=%v, and the next run took %d slots; want on and 1", off, slots)
	}
}

// TestReadLoopYieldsAfterRun: the read loop yields after a delivered
// batch that held a coalesced run — one Invoke's 8 equal-size datagrams
// leave as one segmented send and arrive in one slot — and never after
// datagrams that arrive one to an entry.
func TestReadLoopYieldsAfterRun(t *testing.T) {
	tr, conn, _, dst := groPair(t)
	trS := newTransport(t)
	sender := bindConn(t, trS)
	to, _ := fromAddrPort(dst)
	const n = 8
	got := make(chan struct{}, n)
	tr.Invoke(func() {
		conn.OnRecv(func(transport.Endpoint, []byte) { got <- struct{}{} })
	})
	receive := func() {
		t.Helper()
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("datagram not delivered")
		}
	}
	yields := func() (y int) {
		tr.Invoke(func() { y = conn.yields })
		return
	}
	for _, tc := range []struct {
		name    string
		entries int // n datagrams in this many Invokes, each one received before the next
		want    int
	}{
		{"one run", 1, 1},
		{"one datagram an entry", n, 0},
	} {
		before := yields()
		for e := 0; e < tc.entries; e++ {
			trS.Invoke(func() {
				for i := 0; i < n/tc.entries; i++ {
					sender.SendTo(to, fill(64, byte(i)))
				}
			})
			for i := 0; i < n/tc.entries; i++ {
				receive()
			}
		}
		if y := yields() - before; y != tc.want {
			t.Errorf("%s: %d yields, want %d", tc.name, y, tc.want)
		}
	}
}

// TestParseGRO pins the reading of one recvmmsg slot's control data
// and flags.
func TestParseGRO(t *testing.T) {
	cmsg := func(level, typ int32, data ...byte) []byte {
		b := make([]byte, syscall.CmsgSpace(len(data)))
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
		h.Level, h.Type = level, typ
		h.SetLen(syscall.CmsgLen(len(data)))
		copy(b[syscall.CmsgLen(0):], data)
		return b
	}
	gro := func(seg int32) []byte {
		return cmsg(syscall.IPPROTO_UDP, udpGRO, (*[4]byte)(unsafe.Pointer(&seg))[:]...)
	}
	foreign := cmsg(syscall.SOL_SOCKET, syscall.SO_TIMESTAMP, make([]byte, 16)...)
	relen := func(b []byte, l int) []byte {
		(*syscall.Cmsghdr)(unsafe.Pointer(&b[0])).SetLen(l)
		return b
	}
	const n = 57 * 1152
	for _, tc := range []struct {
		name    string
		control []byte
		flags   int32
		n       int
		seg     int
		ok      bool
	}{
		{"no cmsg: one datagram", nil, 0, 1152, 1152, true},
		{"no cmsg, zero-length datagram", nil, 0, 0, 0, true},
		{"UDP_GRO cmsg", gro(1152), 0, n, 1152, true},
		{"UDP_GRO cmsg, short tail", gro(1152), 0, n - 452, 1152, true},
		{"foreign cmsg alone", foreign, 0, 1152, 1152, true},
		{"foreign cmsg, then UDP_GRO", append(append([]byte(nil), foreign...), gro(1152)...), 0, n, 1152, true},
		{"MSG_CTRUNC", nil, syscall.MSG_CTRUNC, n, 0, false},
		{"MSG_CTRUNC beside a cmsg", gro(1152), syscall.MSG_CTRUNC, n, 0, false},
		{"MSG_TRUNC", gro(1152), syscall.MSG_TRUNC, n, 0, false},
		{"segment size 0", gro(0), 0, n, 0, false},
		{"segment size negative", gro(-1), 0, n, 0, false},
		{"segment larger than the slot: one datagram", gro(1152), 0, 700, 700, true},
		{"UDP_GRO cmsg too short for an int", cmsg(syscall.IPPROTO_UDP, udpGRO, 1, 2), 0, 1152, 1152, true},
		{"cmsg length past the buffer", relen(gro(1152), 1<<10), 0, n, 0, false},
		{"cmsg length below a header", relen(gro(1152), 1), 0, n, 0, false},
	} {
		seg, ok := parseGRO(tc.control, tc.flags, tc.n)
		if seg != tc.seg || ok != tc.ok {
			t.Errorf("%s: parseGRO = %d, %v; want %d, %v", tc.name, seg, ok, tc.seg, tc.ok)
		}
	}
}
