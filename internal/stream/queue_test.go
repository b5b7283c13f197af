package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"natpunch/internal/proto"
)

// TestByteQueueAgainstModel drives a queue the way a stream does —
// append at the tail, consume up to an acknowledged offset, slice a
// segment at an offset — against a plain []byte, with the offsets on
// the 32-bit circle starting just below the wrap. Slices handed out
// must read the same until the next mutation, whatever was compacted,
// parked or taken back before.
func TestByteQueueAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var spare []byte
	q := byteQueue{spare: &spare}
	var model []byte
	base := uint32(1<<32 - 40000) // offset of the queue's first byte
	next := byte(0)
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // append
			p := make([]byte, rng.Intn(3000))
			for i := range p {
				p[i] = next
				next++
			}
			q.Append(p)
			model = append(model, p...)
		case op < 8: // consume a prefix: everything below some offset
			to := base + uint32(rng.Intn(len(model)+1))
			n := int(SeqDiff(to, base))
			q.Consume(n)
			model = model[n:]
			base = to
		default: // slice at an offset
			if len(model) == 0 {
				continue
			}
			from := base + uint32(rng.Intn(len(model)))
			at := int(SeqDiff(from, base))
			n := rng.Intn(len(model) - at + 1)
			if got := q.Bytes(at, at+n); !bytes.Equal(got, model[at:at+n]) {
				t.Fatalf("step %d: %d bytes at offset %d (base %d) differ from the model", step, n, from, base)
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: queue holds %d bytes, model %d", step, q.Len(), len(model))
		}
		if !bytes.Equal(q.Bytes(0, q.Len()), model) {
			t.Fatalf("step %d: queue content differs from the model", step)
		}
		if q.Len() > 0 && q.head > q.Len() {
			t.Fatalf("step %d: dead prefix %d outgrew the %d live bytes", step, q.head, q.Len())
		}
	}
	if base >= 1<<31 {
		t.Fatalf("offsets never wrapped: base %d", base)
	}
}

// solo is one mux with no peer: the test plays the peer by hand,
// feeding it frames packed into one reused datagram and discarding
// what it sends, so every allocation counted is the mux's own.
type solo struct {
	h    *harness
	m    *Mux
	dg   []byte
	sent int
	last []byte // the datagram sent last, copied
}

func newSolo(even bool, cfg Config) *solo { return newSoloBatch(even, cfg, 0) }

// newSoloBatch is newSolo on a harness in batch mode (for batch > 0):
// the test ends the entries, with so.h.endEntry.
func newSoloBatch(even bool, cfg Config, batch int) *solo {
	so := &solo{h: newHarness(1)}
	so.h.batch = batch
	so.m = NewMux(so.h.seam(so.h.ta), func(p []byte) error {
		so.sent++
		so.last = append(so.last[:0], p...)
		return nil
	}, even, cfg, Callbacks{})
	return so
}

// lastFrames parses the datagram sent last; a frame's Data aliases it.
func (so *solo) lastFrames() (frames []Frame) {
	var pr Parser
	_ = pr.Parse(so.last, func(f Frame) error {
		frames = append(frames, f)
		return nil
	})
	return frames
}

// feed delivers the frames as one datagram, a microsecond later.
func (so *solo) feed(frames ...Frame) {
	so.h.clk += time.Microsecond
	so.dg = so.dg[:0]
	for i := range frames {
		so.dg = AppendFrame(so.dg, &frames[i])
	}
	so.m.HandleDatagram(so.dg)
}

// ackedSender returns a sender whose stream holds a full window of
// unacknowledged bytes, and the step that keeps it there: the peer
// acknowledges the oldest segment (and moves both windows up by as
// much), the application writes one more.
func ackedSender(tb testing.TB, window uint32) (so *solo, step func()) {
	cfg := Config{StreamWindow: window, SessionWindow: 4 * window}
	so = newSolo(true, cfg)
	s, err := so.m.Open()
	if err != nil {
		tb.Fatal(err)
	}
	seg := payload(so.m.cfg.MaxDatagram - frameOverhead)
	for s.WriteBudget() > 0 {
		s.Write(seg[:min(len(seg), s.WriteBudget())])
	}
	if s.snd.Len() != int(window) || s.pendingBytes() != 0 {
		tb.Fatalf("window not in flight: %d buffered, %d unsent", s.snd.Len(), s.pendingBytes())
	}
	acked := uint32(0)
	return so, func() {
		acked += uint32(len(seg))
		so.feed(
			Frame{Type: proto.TypeStreamAck, Stream: s.id, Off: acked},
			Frame{Type: proto.TypeStreamWindow, Stream: s.id, Off: acked + window},
			Frame{Type: proto.TypeStreamWindow, Off: acked + 4*window},
		)
		if n := s.Write(seg); n != len(seg) {
			tb.Fatalf("write after ack took %d of %d bytes", n, len(seg))
		}
	}
}

// TestAckZeroAlloc: an advancing ack on a stream with a full 256 KiB
// window in flight, and the write that refills it, allocate nothing:
// no buffer shift, no frame list, no datagram scratch, no timer.
func TestAckZeroAlloc(t *testing.T) {
	so, step := ackedSender(t, 256<<10)
	for i := 0; i < 2000; i++ {
		step() // let the queue and the scratches reach their steady size
	}
	armed, sent := len(so.h.ta.armed), so.sent
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("ack + refill allocates %v/op in steady state, want 0", allocs)
	}
	if so.sent-sent < 1000 {
		t.Fatalf("only %d datagrams sent over 1000 steps: the window is not moving", so.sent-sent)
	}
	if n := len(so.h.ta.armed) - armed; n != 0 {
		t.Errorf("%d timers armed over 1000 advancing acks, want none: the one armed is early, never late", n)
	}
}

// TestSegmentReadZeroAlloc: an in-order segment arriving on a stream
// that already holds 256 KiB unread, and the read that takes as much
// out again, allocate nothing. (The window is a little over 512 KiB:
// credit is re-advertised in half-window steps, so just under half a
// window is the most a reader that keeps pace can be behind.)
func TestSegmentReadZeroAlloc(t *testing.T) {
	const held = 256 << 10
	so := newSolo(false, Config{StreamWindow: 2*held + 4096, SessionWindow: 8 * held})
	seg := payload(so.m.cfg.MaxDatagram - frameOverhead)
	off := uint32(0)
	arrive := func() {
		so.feed(Frame{Type: proto.TypeStream, Stream: 2, Off: off, Data: seg})
		off += uint32(len(seg))
	}
	for off < held {
		arrive()
	}
	s := so.m.streams[2]
	buf := make([]byte, len(seg))
	step := func() {
		arrive()
		if n, _ := s.Read(buf); n != len(buf) {
			t.Fatalf("read %d of %d bytes", n, len(buf))
		}
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if s.rcv.Len() < held || s.rcvNxt != off {
		t.Fatalf("stream holds %d bytes at offset %d, want %d at %d: segments are being refused", s.rcv.Len(), s.rcvNxt, held, off)
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("segment + read allocates %v/op in steady state, want 0", allocs)
	}
}

// TestEntryFlushZeroAlloc: on a transport with an end of entry, a run of
// in-order segments, the one flush deferred to the end of their entry
// and the reads that take as much out again allocate nothing, and the
// run is answered by one datagram.
func TestEntryFlushZeroAlloc(t *testing.T) {
	const held, run = 256 << 10, 8
	so := newSoloBatch(false, Config{StreamWindow: 2*held + 64<<10, SessionWindow: 8 * held}, run)
	seg := payload(so.m.cfg.MaxDatagram - frameOverhead)
	off := uint32(0)
	arrive := func(n int) {
		for i := 0; i < n; i++ {
			so.feed(Frame{Type: proto.TypeStream, Stream: 2, Off: off, Data: seg})
			off += uint32(len(seg))
		}
		so.h.endEntry()
	}
	arrive(held / len(seg))
	s := so.m.streams[2]
	buf := make([]byte, run*len(seg))
	answers := 0
	step := func() {
		sent := so.sent
		arrive(run)
		answers += so.sent - sent
		if n, _ := s.Read(buf); n != len(buf) {
			t.Fatalf("read %d of %d bytes", n, len(buf))
		}
	}
	for i := 0; i < 500; i++ {
		step()
	}
	answers = 0
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("a run of %d segments, its deferred flush and the read allocate %v/op in steady state, want 0", run, allocs)
	}
	if answers != 201 { // AllocsPerRun warms up with one run of its own
		t.Errorf("201 runs of %d segments were answered by %d datagrams, want one each", run, answers)
	}
}

// TestHeldAckZeroAlloc: a request arriving, the receive flush that holds
// its ack, the read, and the response whose flush carries that ack in
// front of its payload allocate nothing, and the three flushes send one
// datagram. (The peer acknowledges each response with the request after
// next, so something is always in flight and the retransmission timer
// stays where it is; the ack timer, once armed, is left alone too.)
func TestHeldAckZeroAlloc(t *testing.T) {
	for _, batch := range []int{0, 8} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			const size = 256
			// Windows the test's 768 KiB each way never get halfway through:
			// no window update, either way, joins the count.
			so := newSoloBatch(false, Config{StreamWindow: 64 << 20, SessionWindow: 64 << 20}, batch)
			msg, buf := payload(size), make([]byte, size)
			round := uint32(0)
			var s *Stream
			heldFlushes := 0
			step := func() {
				req := Frame{Type: proto.TypeStream, Stream: 2, Off: round * size, Data: msg}
				sent := so.sent
				if round < 2 {
					so.feed(req)
				} else {
					so.feed(Frame{Type: proto.TypeStreamAck, Stream: 2, Off: (round - 1) * size}, req)
				}
				so.h.endEntry()
				round++
				if s == nil {
					s = so.m.streams[2]
				}
				if n, _ := s.Read(buf); n != size {
					t.Fatalf("read %d of %d bytes", n, size)
				}
				if so.sent == sent && s.ackPending {
					heldFlushes++
				}
				if n := s.Write(msg); n != size {
					t.Fatalf("write took %d of %d bytes", n, size)
				}
				so.h.endEntry()
				if so.sent != sent+1 {
					t.Fatalf("round %d sent %d datagrams, want one", round, so.sent-sent)
				}
			}
			for i := 0; i < 2000; i++ {
				step()
			}
			armed := len(so.h.ta.armed)
			heldFlushes = 0
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				t.Errorf("request, held ack, read and response allocate %v/op in steady state, want 0", allocs)
			}
			if heldFlushes != 1001 {
				t.Errorf("%d of 1001 requests had their ack held until the response", heldFlushes)
			}
			frames := so.lastFrames()
			if len(frames) != 2 || frames[0].Type != proto.TypeStreamAck || frames[0].Off != round*size ||
				frames[1].Type != proto.TypeStream || len(frames[1].Data) != size {
				t.Errorf("the response left as %+v, want the ack at %d in front of %d bytes", frames, round*size, size)
			}
			if n := len(so.h.ta.armed) - armed; n != 0 {
				t.Errorf("%d timers armed over 1001 rounds inside one ack delay, want none", n)
			}
		})
	}
}

// TestSessionWindowUpdateZeroAlloc: session credit is not any one
// stream's, so an update wakes every writer — over a copy of the stream
// list, because a woken writer may open or finish streams — and that
// copy is the mux's, not a fresh one per update.
func TestSessionWindowUpdateZeroAlloc(t *testing.T) {
	so := newSolo(true, Config{})
	woken := 0
	so.m.cb.Writable = func(*Stream) { woken++ }
	const streams = 16
	for i := 0; i < streams; i++ {
		if _, err := so.m.Open(); err != nil {
			t.Fatal(err)
		}
	}
	limit := so.m.sndSessLimit
	step := func() {
		limit += 1024
		so.feed(Frame{Type: proto.TypeStreamWindow, Off: limit})
	}
	step()
	woken = 0
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a session window update over %d streams allocates %v/op, want 0", streams, allocs)
	}
	if woken != 101*streams {
		t.Errorf("101 updates woke %d writers, want %d each", woken, streams)
	}
}

// BenchmarkAckCost times one advancing ack plus the write that refills
// the window. The cost must not depend on how much is in flight: the
// two sizes read the same.
func BenchmarkAckCost(b *testing.B) {
	for _, window := range []uint32{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("window=%dKiB", window>>10), func(b *testing.B) {
			_, step := ackedSender(b, window)
			for i := 0; i < 4000; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestIdleCapacityBound: 256 streams of one session each burst a full
// window and drain, and stay open. What the two muxes then hold in
// idle buffer capacity is about one window each — the parked array —
// not one per stream.
func TestIdleCapacityBound(t *testing.T) {
	const streams = 256
	h := newHarness(23)
	got := 0
	var tmp [4096]byte
	h.wire(Config{}, Callbacks{}, Callbacks{
		Readable: func(s *Stream) {
			for {
				n, _ := s.Read(tmp[:])
				if got += n; n == 0 {
					return
				}
			}
		},
	})
	window := int(h.a.cfg.StreamWindow)
	burst := payload(window)
	for i := 0; i < streams; i++ {
		s, err := h.a.Open()
		if err != nil {
			t.Fatal(err)
		}
		if n := s.Write(burst); n != window {
			t.Fatalf("stream %d: burst took %d of %d bytes", i, n, window)
		}
		want := (i + 1) * window
		h.run(t, func() bool { return got == want && s.snd.Len() == 0 }, 100000)
	}
	for name, m := range map[string]*Mux{"sender": h.a, "receiver": h.b} {
		if len(m.streams) != streams {
			t.Fatalf("%s has %d live streams, want %d", name, len(m.streams), streams)
		}
		idle := cap(m.spare)
		for _, s := range m.streams {
			idle += cap(s.snd.buf) + cap(s.rcv.buf)
		}
		if idle > window*3/2 {
			t.Errorf("%s holds %d KiB of idle capacity after %d bursts, want about one window (%d KiB)",
				name, idle>>10, streams, window>>10)
		}
	}
	if cap(h.a.spare) < window {
		t.Errorf("sender parked %d bytes, want the burst's array (%d): the next burst allocates again", cap(h.a.spare), window)
	}
}

// TestEarlyRtxTimerRearms: an ack that moves the deadline out leaves
// the armed timer where it is. When that timer fires — early — it
// finds no stream due, sends nothing, and re-arms for the deadline the
// ack set; the lost segment is then resent exactly there.
func TestEarlyRtxTimerRearms(t *testing.T) {
	h := newHarness(24)
	h.drop = dropDataNth(3)
	var dataAt []time.Duration // when a put payload on the wire
	h.tap = func(from int, p []byte) {
		if _, ok := dataTo(from, p); ok {
			dataAt = append(dataAt, h.clk)
		}
	}
	h.wire(Config{}, Callbacks{}, Callbacks{})
	s, _ := h.a.Open()
	seg := payload(1000)
	const ms = time.Millisecond
	for _, at := range []time.Duration{0, 10 * ms, 25 * ms} {
		h.schedule(at, func() { s.Write(seg) })
	}
	sentAtEarlyFire := -1
	h.watch = func() {
		if h.clk == 125*ms && sentAtEarlyFire < 0 {
			sentAtEarlyFire = h.sent
		}
	}
	h.run(t, func() bool { return len(dataAt) == 4 }, 1000)

	// Each segment is a lone small one, so its ack is the ack timer's, 5 ms
	// after it arrives. Segment 1 is acked at 25 ms: the first RTT sample
	// (held ack included) makes the RTO its 100 ms floor, and the
	// deadline 125 ms is earlier than the 500 ms armed at the first
	// write, so the timer moves in. Segment 2 is acked at 35 ms with
	// segment 3 (lost) in flight: the deadline becomes 135 ms, later than
	// the timer, which stays.
	want := []time.Duration{0, 10 * ms, 25 * ms, 135 * ms}
	if fmt.Sprint(dataAt) != fmt.Sprint(want) {
		t.Errorf("payload sent at %v, want %v", dataAt, want)
	}
	armed := h.ta.armed
	if len(armed) < 3 || armed[0] != 500*ms || armed[1] != 125*ms || armed[2] != 135*ms {
		t.Errorf("sender timers armed for %v, want 500ms, 125ms, then 135ms from the early fire", armed)
	}
	if before := 3 + 2; sentAtEarlyFire != before {
		t.Errorf("%d datagrams on the wire after the 125 ms fire, want the %d from before it", sentAtEarlyFire, before)
	}
}
