package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"natpunch/internal/proto"
	"natpunch/transport"
)

// The engine tests run two muxes over a hand-rolled single-threaded
// event loop: one shared virtual clock, per-endpoint fake transports,
// and a scriptable link (delay, loss, duplication, reordering) and
// writer (as fast as credit allows, or paced). Every schedule is
// deterministic, so failures reproduce exactly.
//
// By default each datagram is an event of its own and the transports
// have no end of entry, like the simulator's. harness.batch opts into
// what a real socket does with a flight: see there.

type hevent struct {
	at  time.Duration
	seq int
	fn  func()
}

type harness struct {
	clk    time.Duration
	seq    int
	events []*hevent
	rng    *rand.Rand

	a, b   *Mux
	ta, tb *fakeTransport

	delay time.Duration
	// drop decides per datagram (from = 0 for a→b, 1 for b→a)
	// whether to lose it; nil keeps everything.
	drop func(from int, p []byte) bool
	// jitter adds a random extra delay per datagram, reordering
	// traffic when nonzero.
	jitter time.Duration
	// dupEvery duplicates every Nth datagram (0 = never).
	dupEvery int
	sent     int
	// pace, when nonzero, makes oneWayTransfer's writer application
	// limited: chunk bytes every pace instead of all the credit allows,
	// so fresh data keeps following whatever the ARQ resends.
	pace  time.Duration
	chunk int
	// read, when nonzero, is what oneWayTransfer's reader takes per Read
	// call (see sink).
	read int
	// watch, when set, runs after every event: tests sample engine
	// state over virtual time with it.
	watch func()
	// tap, when set, sees every datagram either side sends, lost or not.
	tap func(from int, p []byte)

	// batch, when nonzero (set it before wire), gives events the shape
	// of realudp's entries. Both transports implement
	// transport.Deferrer: what engine code defers runs when the event
	// that ran it returns (endEntry). And the datagrams one event sends
	// one way with one delay arrive as one event, up to batch of them:
	// a delivered recvmmsg batch of UDP-GRO runs.
	batch int
	hooks []func()
	open  [2]*arrival // per direction: the arrival the running event's sends join

	// What a sent on the wire, from its data frames: the highest offset
	// per stream and the payload bytes sent below it (retransmissions).
	sentTo   map[uint64]uint32
	rtxBytes int
}

func newHarness(seed int64) *harness {
	h := &harness{
		rng: rand.New(rand.NewSource(seed)), delay: 10 * time.Millisecond,
		sentTo: make(map[uint64]uint32),
	}
	h.ta = &fakeTransport{h: h}
	h.tb = &fakeTransport{h: h}
	return h
}

// wire creates the two muxes with the given config and callbacks.
func (h *harness) wire(cfg Config, cba, cbb Callbacks) {
	h.a = NewMux(h.seam(h.ta), h.sendFrom(0), true, cfg, cba)
	h.b = NewMux(h.seam(h.tb), h.sendFrom(1), false, cfg, cbb)
}

// seam is ft as a mux gets it: with an end of entry in batch mode.
func (h *harness) seam(ft *fakeTransport) transport.Transport {
	if h.batch > 0 {
		return entryTransport{ft}
	}
	return ft
}

// entryTransport is a fakeTransport with an end of entry.
type entryTransport struct{ *fakeTransport }

func (t entryTransport) Defer(fn func()) { t.h.hooks = append(t.h.hooks, fn) }

// endEntry runs what the entry deferred, and what that defers, and
// closes the arrivals its sends were joining. step calls it after every
// event; a test that calls into a mux between events ends that entry
// itself.
func (h *harness) endEntry() {
	for i := 0; i < len(h.hooks); i++ {
		h.hooks[i]()
	}
	h.hooks = h.hooks[:0]
	h.open = [2]*arrival{}
}

// arrival is one delivered batch in the making.
type arrival struct {
	at      time.Duration
	deliver []func()
}

// deliverAfter schedules one datagram's delivery: an event of its own,
// or in batch mode a place in the arrival the running event is sending
// that way for that instant.
func (h *harness) deliverAfter(from int, d time.Duration, deliver func()) {
	if h.batch == 0 {
		h.schedule(d, deliver)
		return
	}
	ar := h.open[from]
	if ar == nil || ar.at != h.clk+d || len(ar.deliver) == h.batch {
		ar = &arrival{at: h.clk + d}
		h.open[from] = ar
		h.schedule(d, func() {
			for _, fn := range ar.deliver {
				fn()
			}
		})
	}
	ar.deliver = append(ar.deliver, deliver)
}

func (h *harness) schedule(d time.Duration, fn func()) *hevent {
	h.seq++
	ev := &hevent{at: h.clk + d, seq: h.seq, fn: fn}
	h.events = append(h.events, ev)
	return ev
}

func (h *harness) sendFrom(from int) func([]byte) error {
	return func(p []byte) error {
		h.sent++
		if from == 0 {
			h.countRetransmitted(p)
		}
		if h.tap != nil {
			h.tap(from, p)
		}
		if h.drop != nil && h.drop(from, p) {
			return nil
		}
		cp := append([]byte(nil), p...)
		dst := h.b
		if from == 1 {
			dst = h.a
		}
		deliver := func() { dst.HandleDatagram(cp) }
		d := h.delay
		if h.jitter > 0 {
			d += time.Duration(h.rng.Int63n(int64(h.jitter)))
		}
		h.deliverAfter(from, d, deliver)
		if h.dupEvery > 0 && h.sent%h.dupEvery == 0 {
			h.deliverAfter(from, d+h.delay/2, deliver)
		}
		return nil
	}
}

// countRetransmitted accounts one of a's datagrams, lost or not.
func (h *harness) countRetransmitted(p []byte) {
	var pr Parser
	_ = pr.Parse(p, func(f Frame) error {
		if f.Type != proto.TypeStream || len(f.Data) == 0 {
			return nil
		}
		if old := SeqDiff(h.sentTo[f.Stream], f.Off); old > 0 {
			h.rtxBytes += min(int(old), len(f.Data))
		}
		if end := f.Off + uint32(len(f.Data)); SeqGT(end, h.sentTo[f.Stream]) {
			h.sentTo[f.Stream] = end
		}
		return nil
	})
}

// dataTo reports whether p is one of a's datagrams carrying stream
// payload, the thing the loss tests drop.
func dataTo(from int, p []byte) (off uint32, ok bool) {
	if from != 0 {
		return 0, false
	}
	var pr Parser
	_ = pr.Parse(p, func(f Frame) error {
		if f.Type == proto.TypeStream && len(f.Data) > 0 && !ok {
			off, ok = f.Off, true
		}
		return nil
	})
	return off, ok
}

// step runs the earliest pending event; false when idle.
func (h *harness) step() bool {
	if len(h.events) == 0 {
		return false
	}
	best := 0
	for i, ev := range h.events {
		if ev.at < h.events[best].at ||
			(ev.at == h.events[best].at && ev.seq < h.events[best].seq) {
			best = i
		}
	}
	ev := h.events[best]
	h.events = append(h.events[:best], h.events[best+1:]...)
	h.clk = ev.at
	ev.fn()
	h.endEntry()
	if h.watch != nil {
		h.watch()
	}
	return true
}

// run steps until done() or the event budget is exhausted.
func (h *harness) run(t testing.TB, done func() bool, budget int) {
	t.Helper()
	for i := 0; i < budget; i++ {
		if done() {
			return
		}
		if !h.step() {
			t.Fatalf("harness idle before completion (after %d events, t=%v)", i, h.clk)
		}
	}
	t.Fatalf("event budget %d exhausted (t=%v)", budget, h.clk)
}

type fakeTransport struct {
	h *harness
	// armed lists the due time of every timer ever set, in order, and
	// timers the timers themselves.
	armed  []time.Duration
	timers []*fakeTimer
}

// live counts the timers still due to fire.
func (t *fakeTransport) live() int {
	n := 0
	for _, ft := range t.timers {
		if ft.Active() {
			n++
		}
	}
	return n
}

func (t *fakeTransport) BindUDP(port transport.Port) (transport.UDPConn, error) {
	panic("not used")
}
func (t *fakeTransport) Now() time.Duration { return t.h.clk }
func (t *fakeTransport) Rand() *rand.Rand   { return t.h.rng }
func (t *fakeTransport) Invoke(fn func())   { fn() }
func (t *fakeTransport) After(d time.Duration, fn func()) transport.Timer {
	ft := &fakeTimer{}
	t.armed = append(t.armed, t.h.clk+d)
	t.timers = append(t.timers, ft)
	ft.ev = t.h.schedule(d, func() {
		if !ft.stopped {
			ft.fired = true
			fn()
		}
	})
	return ft
}

type fakeTimer struct {
	ev      *hevent
	stopped bool
	fired   bool
}

func (t *fakeTimer) Stop() bool {
	was := !t.stopped && !t.fired
	t.stopped = true
	return was
}
func (t *fakeTimer) Active() bool { return !t.stopped && !t.fired }

// sink wires a receive-side pump: every Readable drains the stream
// into a buffer, read bytes per Read call (a full segment when zero, at
// most 4 KiB); EOF and termination are recorded.
type sink struct {
	buf  bytes.Buffer
	read int
	eof  bool
	err  error
	done bool
}

func (k *sink) pump(s *Stream) {
	var tmp [4 << 10]byte
	read := k.read
	if read == 0 {
		read = maxDatagram - frameOverhead
	}
	for {
		n, eof := s.Read(tmp[:read])
		k.buf.Write(tmp[:n])
		k.eof = eof
		if n == 0 {
			return
		}
	}
}

// source wires a send-side pump: every Writable pushes more of the
// payload, half-closing after the final byte. A nonzero chunk bounds
// what one pump writes.
type source struct {
	data  []byte
	off   int
	chunk int
}

func (src *source) pump(s *Stream) {
	quota := len(src.data)
	if src.chunk > 0 {
		quota = src.chunk
	}
	for src.off < len(src.data) {
		n := s.Write(src.data[src.off:min(src.off+quota, len(src.data))])
		src.off += n
		quota -= n
		if n == 0 || (quota == 0 && src.off < len(src.data)) {
			return
		}
	}
	s.CloseWrite()
}

// payload builds a deterministic, position-identifying byte pattern.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8 + 3)
	}
	return p
}

// oneWayTransfer runs a size-byte transfer a→b under the harness's
// current link conditions and verifies byte-exact arrival and clean
// close-out of both engine streams.
func oneWayTransfer(t *testing.T, h *harness, cfg Config, size, budget int) {
	t.Helper()
	src := &source{data: payload(size), chunk: h.chunk}
	rcv := &sink{read: h.read}
	var accepted *Stream
	cba := Callbacks{
		Writable: func(s *Stream) {
			if h.pace == 0 {
				src.pump(s)
			}
		},
		Closed: func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("sender stream closed with error: %v", err)
			}
		},
	}
	cbb := Callbacks{
		Accept: func(s *Stream) {
			if accepted != nil {
				t.Fatalf("accepted two streams")
			}
			accepted = s
			s.CloseWrite() // nothing to send back
		},
		Readable: func(s *Stream) { rcv.pump(s) },
		Closed: func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("receiver stream closed with error: %v", err)
			}
			rcv.done = true
		},
	}
	h.wire(cfg, cba, cbb)

	s, err := h.a.Open()
	if err != nil {
		t.Fatal(err)
	}
	src.pump(s)
	if h.pace > 0 {
		var tick func()
		tick = func() {
			if src.pump(s); src.off < len(src.data) {
				h.schedule(h.pace, tick)
			}
		}
		h.schedule(h.pace, tick)
	}
	h.run(t, func() bool { return rcv.done && s.Done() }, budget)

	if !bytes.Equal(rcv.buf.Bytes(), src.data) {
		t.Fatalf("corrupted transfer: got %d bytes, want %d (first mismatch %d)",
			rcv.buf.Len(), len(src.data), firstMismatch(rcv.buf.Bytes(), src.data))
	}
	if !rcv.eof {
		t.Fatal("receiver never saw EOF")
	}
	if s.Err() != nil || accepted.Err() != nil {
		t.Fatalf("terminal errors: %v / %v", s.Err(), accepted.Err())
	}
	if len(h.a.streams) != 0 || len(h.b.streams) != 0 {
		t.Fatalf("streams not released: a=%d b=%d", len(h.a.streams), len(h.b.streams))
	}
	if h.a.rcvInUse != 0 || h.b.rcvInUse != 0 {
		t.Fatalf("buffered-byte accounting leaked: a=%d b=%d", h.a.rcvInUse, h.b.rcvInUse)
	}
	if h.b.rcvSessUsed != h.a.sndSessNxt || h.a.rcvSessUsed != h.b.sndSessNxt {
		t.Fatalf("session accounting drifted: b consumed %d of a's %d, a consumed %d of b's %d",
			h.b.rcvSessUsed, h.a.sndSessNxt, h.a.rcvSessUsed, h.b.sndSessNxt)
	}
}

// drain steps the harness until no events remain.
func (h *harness) drain(t testing.TB, budget int) {
	t.Helper()
	for i := 0; i < budget; i++ {
		if !h.step() {
			return
		}
	}
	t.Fatalf("event budget %d exhausted draining (t=%v)", budget, h.clk)
}

func firstMismatch(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestTransferClean(t *testing.T) {
	oneWayTransfer(t, newHarness(1), Config{}, 100<<10, 200000)
}

func TestTransferLoss(t *testing.T) {
	h := newHarness(2)
	h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 25 }
	oneWayTransfer(t, h, Config{}, 50<<10, 400000)
}

func TestTransferReorderAndDup(t *testing.T) {
	h := newHarness(3)
	h.jitter = 40 * time.Millisecond // 4x the base delay: heavy reordering
	h.dupEvery = 3
	oneWayTransfer(t, h, Config{}, 50<<10, 400000)
}

func TestTransferLossReorderDupSmallWindows(t *testing.T) {
	h := newHarness(4)
	h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 15 }
	h.jitter = 25 * time.Millisecond
	h.dupEvery = 5
	cfg := Config{StreamWindow: 4 << 10, SessionWindow: 8 << 10}
	oneWayTransfer(t, h, cfg, 64<<10, 2000000)
}

// dropDataNth loses the payload datagrams at the given positions
// (1-based) in the sequence a sends, first transmissions and
// retransmissions counted alike, and nothing else.
func dropDataNth(nth ...int) func(int, []byte) bool {
	n := 0
	return func(from int, p []byte) bool {
		if _, ok := dataTo(from, p); !ok {
			return false
		}
		n++
		for _, k := range nth {
			if n == k {
				return true
			}
		}
		return false
	}
}

// TestLosslessTransferNeverTimesOut: a lossless transfer resends nothing
// and its retransmission timer never finds a stream due, on either side,
// to the last FIN. (The half-close here is a data-less FIN that reaches
// a receiver which has read everything and whose own FIN is acked: the
// stream completes as the FIN is handled, before any flush, and its last
// ack used to go with it, leaving the sender's FIN to a timeout.) Credit
// comes back on the acks as the reader frees it, so the transfer is one
// round trip per window and one more; a timeout anywhere is five more,
// and credit held back to half-window steps doubles it. Nor does it probe:
// the probe timeout allows for the peer's ack delay, so an ack that was
// held is never taken for a lost tail.
func TestLosslessTransferNeverTimesOut(t *testing.T) {
	const size = 4 << 20
	for _, batch := range []int{0, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			h := newHarness(18)
			h.batch = batch
			oneWayTransfer(t, h, Config{}, size, 4000000)
			if h.rtxBytes != 0 || h.a.timeouts != 0 || h.b.timeouts != 0 || h.a.probes != 0 || h.b.probes != 0 {
				t.Errorf("retransmitted %d bytes, timer found a stream due %d times at the sender and %d at the receiver, probes %d and %d: want none of it",
					h.rtxBytes, h.a.timeouts, h.b.timeouts, h.a.probes, h.b.probes)
			}
			trips := size/int(h.a.cfg.StreamWindow) + 1
			if limit := time.Duration(trips) * 2 * h.delay; h.clk > limit {
				t.Errorf("took %v, want at most %v: %d round trips", h.clk, limit, trips)
			}
			t.Logf("%v, %d datagrams", h.clk, h.sent)
		})
	}
}

// TestTransferOnePercentLoss: with one segment in a hundred lost, every
// hole is repaired from the ranges the acks report — the timer never
// finds a stream due, and the transfer resends about what was lost
// instead of paying a timeout and a window per hole. The loss hits
// first transmissions only: a flight here is a whole window sent in one
// instant, so nothing fresh follows a retransmission to expose its loss
// and a lost one waits for the tail-loss probe, which
// TestLostRetransmissionAtWindowEdge covers; the paced writer of
// TestLostRetransmissionRepairedWithoutTimeout covers the loss that
// fresh data exposes.
//
// The time bounds are in round trips. The stream window is about one
// bandwidth-delay product here, and credit rides the acks, so the
// lossless transfer takes a round trip per window and one more. What a
// lossy phase waits for beyond that is not recovery but flow control:
// the reader cannot read past a hole, so the window stops at it, and
// the sender, out of credit, has only the repair to send for a round
// trip. A hundred segments are a little less than half a window, so
// every window-sized flight holds a hole: at most one more round trip
// per window. A timeout is five. And none of it depends on how much the
// reader takes per Read: the credit a read frees leaves with the next
// ack, wherever the read ended.
func TestTransferOnePercentLoss(t *testing.T) {
	const size = 4 << 20
	reads := []int{maxDatagram - frameOverhead, 4 << 10}
	phases := []int{0, 37, 99}
	took := make([][]time.Duration, len(reads)) // per read size: lossless, then each phase
	var rtt time.Duration
	for i, read := range reads {
		t.Run(fmt.Sprintf("read=%d", read), func(t *testing.T) {
			clean := newHarness(18)
			clean.read = read
			oneWayTransfer(t, clean, Config{}, size, 4000000)
			rtt = 2 * clean.delay
			windows := size / int(clean.a.cfg.StreamWindow)
			if limit := time.Duration(windows+1) * rtt; clean.clk > limit {
				t.Errorf("lossless took %v, want at most %v: a round trip per window and one more", clean.clk, limit)
			}
			took[i] = append(took[i], clean.clk)
			for _, phase := range phases {
				lossy := newHarness(18)
				lossy.read = read
				seen := make(map[uint32]bool)
				lossy.drop = func(from int, p []byte) bool {
					off, ok := dataTo(from, p)
					if !ok || seen[off] {
						return false
					}
					seen[off] = true
					return len(seen)%100 == phase
				}
				oneWayTransfer(t, lossy, Config{}, size, 4000000)
				took[i] = append(took[i], lossy.clk)
				if lossy.a.timeouts != 0 {
					t.Errorf("phase %d: the sender's timer found a stream due %d times, want every hole repaired from the acks' ranges",
						phase, lossy.a.timeouts)
				}
				if limit := clean.clk + time.Duration(windows)*rtt; lossy.clk > limit {
					t.Errorf("phase %d: 1%% loss took %v, lossless %v: want at most one round trip more per window, %v",
						phase, lossy.clk, clean.clk, limit)
				}
				if ratio := float64(lossy.rtxBytes) / size; ratio > 0.015 {
					t.Errorf("phase %d: retransmitted %.4f bytes per byte delivered, want <= 0.015",
						phase, ratio)
				}
				t.Logf("phase %d: %v (lossless %v), %.4f retransmitted", phase, lossy.clk, clean.clk,
					float64(lossy.rtxBytes)/size)
			}
		})
	}
	for j := range min(len(took[0]), len(took[1])) {
		if a, b := took[0][j], took[1][j]; a-b > rtt || b-a > rtt {
			run := "lossless"
			if j > 0 {
				run = fmt.Sprintf("phase %d", phases[j-1])
			}
			t.Errorf("%s: %d-byte reads took %v, %d-byte reads %v: want within one round trip",
				run, reads[0], a, reads[1], b)
		}
	}
}

// TestThreeHolesRepairedTogether: three losses in one window are three
// holes on the scoreboard, and all three are refilled one round trip
// after the third is reported. A cumulative ack can only name the
// lowest, so it would take a round trip each.
func TestThreeHolesRepairedTogether(t *testing.T) {
	const size = 200 << 10 // inside one stream window: a single flight
	h := newHarness(19)
	h.drop = dropDataNth(20, 80, 140)
	var reported, repaired time.Duration
	h.watch = func() {
		s := h.a.streams[2]
		if s != nil && reported == 0 && len(s.sacked) == 3 {
			reported = h.clk
		}
		// The sender sees the repair as the cumulative ack of everything
		// (which may release the stream in the same event).
		if reported != 0 && repaired == 0 && (s == nil || s.sndUna == size) {
			repaired = h.clk
		}
	}
	oneWayTransfer(t, h, Config{}, size, 200000)
	if reported == 0 || repaired == 0 {
		t.Fatalf("three holes never stood on the scoreboard (reported %v, repaired %v)", reported, repaired)
	}
	if rtt := 2 * h.delay; repaired-reported > rtt {
		t.Errorf("holes reported at %v were all acknowledged at %v: want within one RTT (%v)",
			reported, repaired, rtt)
	}
	if h.rtxBytes > 3*(1152-frameOverhead) {
		t.Errorf("retransmitted %d bytes for three lost segments", h.rtxBytes)
	}
}

// TestLostRetransmissionRepairedWithoutTimeout: the hole's first
// retransmission is dropped as well. Data first sent after it is then
// reported with the hole still open, which proves the retransmission
// lost; the hole goes out again at once, well inside the 100 ms RTO,
// and nothing else is resent.
func TestLostRetransmissionRepairedWithoutTimeout(t *testing.T) {
	const size = 256 << 10
	h := newHarness(20)
	h.pace, h.chunk = time.Millisecond, 2<<10
	var lostOff uint32
	var lostAt, filledAt time.Duration
	drops := 0
	h.drop = func(from int, p []byte) bool {
		off, ok := dataTo(from, p)
		if !ok || h.clk < 40*time.Millisecond {
			return false
		}
		if drops == 0 {
			lostOff, lostAt = off, h.clk
		}
		if off != lostOff || drops == 2 {
			return false
		}
		drops++
		return true
	}
	h.watch = func() {
		if s := h.b.streams[2]; s != nil && drops == 2 && filledAt == 0 && SeqGT(s.rcvNxt, lostOff) {
			filledAt = h.clk
		}
	}
	oneWayTransfer(t, h, Config{}, size, 400000)
	if drops != 2 || filledAt == 0 {
		t.Fatalf("scenario did not run: %d drops, hole filled at %v", drops, filledAt)
	}
	// Detect (1 RTT), detect again (1 RTT), deliver (half): the pacing
	// adds a few milliseconds of waiting for three segments above.
	if limit := lostAt + 3*2*h.delay; filledAt > limit {
		t.Errorf("hole sent at %v filled at %v, want by %v (no RTO)", lostAt, filledAt, limit)
	}
	if h.rtxBytes > 2*(1152-frameOverhead) {
		t.Errorf("retransmitted %d bytes: more than the one segment twice", h.rtxBytes)
	}
}

// TestLostRetransmissionAtWindowEdge is the case the paced writer above
// sidesteps. In whole-window flights the sender resends holes with its
// credit spent, so nothing fresh follows a retransmission and no report
// can prove it lost. Here two segments of one flight are lost, and the
// lower hole's retransmission too, while the upper hole's goes out after
// it. The tail-loss probe resends the lower hole a probe timeout after
// the last advancing ack, where only the go-back-N timeout used to,
// minRTO later.
func TestLostRetransmissionAtWindowEdge(t *testing.T) {
	const size = 4 << 20
	const start = 200 * time.Millisecond // past the first flights: the RTT estimate has settled
	h := newHarness(18)
	sends := make(map[uint32]int)
	fresh := 0 // first transmissions from start on
	var head, upper uint32
	var lostAt, upperAt, filledAt time.Duration
	h.drop = func(from int, p []byte) bool {
		off, ok := dataTo(from, p)
		if !ok {
			return false
		}
		sends[off]++
		switch {
		case sends[off] == 1 && h.clk >= start:
			fresh++
			if fresh == 1 {
				head = off
			} else if fresh == 40 {
				upper = off
			}
			return fresh == 1 || fresh == 40
		case fresh >= 40 && off == upper && sends[off] == 2:
			upperAt = h.clk
		case fresh >= 40 && off == head && sends[off] == 2:
			lostAt = h.clk
			return true
		}
		return false
	}
	h.watch = func() {
		if s := h.b.streams[2]; s != nil && lostAt != 0 && filledAt == 0 && SeqGT(s.rcvNxt, head) {
			filledAt = h.clk
		}
	}
	oneWayTransfer(t, h, Config{}, size, 4000000)
	if lostAt == 0 || upperAt < lostAt || filledAt == 0 {
		t.Fatalf("scenario did not run: head retransmission lost at %v, upper hole resent at %v, head filled at %v",
			lostAt, upperAt, filledAt)
	}
	t.Logf("head hole's retransmission lost at %v, filled %v later (minRTO %v); %d probes",
		lostAt, filledAt-lostAt, minRTO, h.a.probes)
	if h.a.timeouts != 0 {
		t.Errorf("the sender's timer went back N %d times, want the probe to repair the hole", h.a.timeouts)
	}
	if filledAt-lostAt > minRTO/2 {
		t.Errorf("head hole filled %v after its retransmission was lost, want well inside minRTO (%v)",
			filledAt-lostAt, minRTO)
	}
	if resent := sends[head] - 1; resent > 3 {
		t.Errorf("head segment resent %d times, want at most three", resent)
	}
}

// TestTailLossProbe: the last full segment before the FIN is lost, and
// what follows it is too little for any report to prove it lost. The
// probe resends it a probe timeout after the last advancing ack: no go
// back N, and the transfer ends less than minRTO after the lossless
// one. When the probes are lost as well, the go-back-N timeout fires
// once, where it would without probes: one RTO after the last advancing
// ack, as the sender stood then, no later. Before it go the probes that
// fit, the first a probe timeout after that ack and each next one twice
// as far out.
func TestTailLossProbe(t *testing.T) {
	const size = 1<<20 + 100
	maxSeg := maxDatagram - frameOverhead
	// The lossless run names the segment: the last full one on the wire.
	clean := newHarness(26)
	var last uint32
	clean.tap = func(from int, p []byte) {
		var pr Parser
		_ = pr.Parse(p, func(f Frame) error {
			if from == 0 && f.Type == proto.TypeStream && len(f.Data) == maxSeg {
				last = f.Off
			}
			return nil
		})
	}
	oneWayTransfer(t, clean, Config{}, size, 4000000)
	for _, probesLost := range []bool{false, true} {
		t.Run(fmt.Sprintf("probesLost=%v", probesLost), func(t *testing.T) {
			h := newHarness(26)
			sends := 0
			h.drop = func(from int, p []byte) bool {
				if off, ok := dataTo(from, p); !ok || off != last {
					return false
				}
				sends++
				return sends == 1 || (probesLost && h.a.timeouts == 0)
			}
			// The sender as the last advancing ack left it: when, its
			// timeout and its probe timeout.
			var una uint32
			var advAt, rto, pto, firedAt time.Duration
			h.watch = func() {
				if s := h.a.streams[2]; s != nil && h.a.timeouts == 0 && s.sndUna != una {
					una, advAt, rto, pto = s.sndUna, h.clk, s.rto, h.a.pto()
				}
				if h.a.timeouts == 1 && firedAt == 0 {
					firedAt = h.clk
				}
			}
			oneWayTransfer(t, h, Config{}, size, 4000000)
			t.Logf("finished at %v, lossless %v (minRTO %v): %d probes, %d timeouts (at %v, last advancing ack at %v, RTO %v, PTO %v)",
				h.clk, clean.clk, minRTO, h.a.probes, h.a.timeouts, firedAt, advAt, rto, pto)
			if !probesLost {
				if h.a.probes == 0 || h.a.timeouts != 0 {
					t.Errorf("%d probes, %d timeouts: want the tail repaired by a probe", h.a.probes, h.a.timeouts)
				}
				if late := h.clk - clean.clk; late >= minRTO {
					t.Errorf("finished %v after the lossless run, want less than minRTO (%v)", late, minRTO)
				}
				return
			}
			probes, at := 0, advAt
			for probes < maxProbes {
				if at += pto << probes; at >= advAt+rto {
					break
				}
				probes++
			}
			if probes == 0 || h.a.probes != probes || h.a.timeouts != 1 {
				t.Errorf("%d probes, %d timeouts: want %d and then the one", h.a.probes, h.a.timeouts, probes)
			}
			if want := advAt + rto; firedAt != want {
				t.Errorf("go-back-N timeout fired at %v, want %v: one RTO after the last advancing ack", firedAt, want)
			}
		})
	}
}

// TestReleasedReceiverFinalAckLost is the trap selective recovery must
// stay out of: the receiver reported everything above a hole, got the
// hole, finished, released the stream — and its final ack was lost.
// The scoreboard then says only the hole is missing and the hole has
// been resent, so nothing looks worth sending; only the timer's
// go-back-N resend reaches the released stream's re-ack.
func TestReleasedReceiverFinalAckLost(t *testing.T) {
	const size = 64 << 10
	h := newHarness(21)
	loseData := dropDataNth(10)
	finalAcks, sawBoard := 0, false
	h.drop = func(from int, p []byte) bool {
		if loseData(from, p) {
			return true
		}
		final := false
		if from == 1 {
			var pr Parser
			_ = pr.Parse(p, func(f Frame) error {
				final = final || (f.Type == proto.TypeStreamAck && f.FIN)
				return nil
			})
		}
		if final {
			finalAcks++
		}
		return final && finalAcks == 1
	}
	h.watch = func() {
		if s := h.a.streams[2]; s != nil && len(s.sacked) > 0 {
			sawBoard = true
		}
	}
	oneWayTransfer(t, h, Config{}, size, 200000)
	if !sawBoard || finalAcks < 2 {
		t.Fatalf("scenario did not run: scoreboard used %v, %d final acks", sawBoard, finalAcks)
	}
	if h.clk < 100*time.Millisecond {
		t.Fatalf("finished at %v, before any retransmission timeout could fire", h.clk)
	}
}

// ackRangesOf encodes (start, end) pairs the way an ack's Data does.
func ackRangesOf(bounds ...uint32) []byte {
	var b []byte
	for i := 0; i+1 < len(bounds); i += 2 {
		b = appendSpan(b, span{bounds[i], bounds[i+1]})
	}
	return b
}

// TestAckReportsLowestRanges: an ack names what the receiver holds out
// of order as coalesced ranges, lowest first, at most maxAckRanges of
// them — and nothing at all once the holes are filled.
func TestAckReportsLowestRanges(t *testing.T) {
	h := newHarness(23)
	var acks []Frame
	h.drop = func(from int, p []byte) bool {
		var pr Parser
		_ = pr.Parse(p, func(f Frame) error {
			if from == 1 && f.Type == proto.TypeStreamAck {
				f.Data = append([]byte(nil), f.Data...)
				acks = append(acks, f)
			}
			return nil
		})
		return true
	}
	h.wire(Config{}, Callbacks{}, Callbacks{})
	feed := func(off, n int) {
		h.b.HandleDatagram(AppendFrame(nil, &Frame{
			Type: proto.TypeStream, Stream: 2, Off: uint32(off), Data: payload(n),
		}))
	}
	// Twelve islands of two touching segments each, every other 100.
	for i := 11; i >= 0; i-- {
		feed(200*i+150, 50)
		feed(200*i+100, 50)
	}
	var want []uint32
	for i := 0; i < maxAckRanges; i++ {
		want = append(want, uint32(200*i+100), uint32(200*i+200))
	}
	last := acks[len(acks)-1]
	if last.Off != 0 || !bytes.Equal(last.Data, ackRangesOf(want...)) {
		t.Fatalf("ack at %d reports % x, want the lowest %d of 12 ranges % x",
			last.Off, last.Data, maxAckRanges, ackRangesOf(want...))
	}
	// The segment that fills the last hole is acknowledged as it arrives,
	// like every segment while anything is out of order. The one after it
	// finds nothing out of order and nothing else to say: its ack is the
	// timer's.
	for i := 0; i <= 12; i++ {
		feed(200*i, 100)
	}
	if last = acks[len(acks)-1]; last.Off != 2400 || last.Data != nil {
		t.Fatalf("ack after the holes filled: at %d with ranges % x, want 2400 and none", last.Off, last.Data)
	}
	sent := len(acks)
	h.drain(t, 100)
	if last = acks[len(acks)-1]; len(acks) != sent+1 || last.Off != 2500 || last.Data != nil || h.clk != maxAckDelay {
		t.Fatalf("%d acks after the ack delay (at %v), the last at %d with ranges % x: want one more, at 2500 with none, %v on",
			len(acks)-sent, h.clk, last.Off, last.Data, maxAckDelay)
	}
}

// TestHostileAckRangesBounded feeds the sender acks no conforming
// receiver would send, mid-transfer with a full window in flight. The
// scoreboard must stay sorted, disjoint, inside the flight and under
// its cap, and — since it may now hold lies about bytes the lossy link
// then drops — the transfer must still finish byte-exact through the
// timer, which forgets the board.
func TestHostileAckRangesBounded(t *testing.T) {
	cfg := Config{}.withDefaults()
	limit := int(cfg.StreamWindow) / maxDatagram
	cases := []struct {
		name string
		acks func(una, nxt uint32) [][]byte // ack Data payloads
		want int                            // spans on a board that was empty
	}{
		{"reversed", func(una, _ uint32) [][]byte {
			return [][]byte{ackRangesOf(una+5000, una+1000)}
		}, 0},
		{"empty", func(una, _ uint32) [][]byte {
			return [][]byte{ackRangesOf(una+1000, una+1000)}
		}, 0},
		{"outside the flight", func(una, nxt uint32) [][]byte {
			return [][]byte{ackRangesOf(una-9000, una-10, nxt+1, nxt+9000, 1<<31+una, 1<<31+nxt)}
		}, 0},
		{"straddling both ends", func(una, nxt uint32) [][]byte {
			return [][]byte{ackRangesOf(una-9000, una+100, nxt-100, nxt+9000)}
		}, 2},
		{"overlapping", func(una, _ uint32) [][]byte {
			return [][]byte{ackRangesOf(una+100, una+500, una+300, una+900, una+900, una+950, una+50, una+120)}
		}, 1},
		{"truncated tail", func(una, _ uint32) [][]byte {
			return [][]byte{append(ackRangesOf(una+100, una+200), 0, 0, 0, 1, 0, 0, 2)}
		}, 1},
		{"more than eight", func(una, _ uint32) [][]byte {
			var b []uint32
			for i := uint32(0); i < 12; i++ {
				b = append(b, una+100*i+10, una+100*i+20)
			}
			return [][]byte{ackRangesOf(b...)}
		}, maxAckRanges},
		{"alternate bytes", func(una, nxt uint32) [][]byte {
			var acks [][]byte
			for at := una + 1; SeqLT(at+16, nxt) && len(acks) < 4*limit; at += 16 {
				var b []uint32
				for i := uint32(0); i < maxAckRanges; i++ {
					b = append(b, at+2*i, at+2*i+1)
				}
				acks = append(acks, ackRangesOf(b...))
			}
			return acks
		}, limit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(22)
			injected := false
			h.drop = func(int, []byte) bool { return injected && h.rng.Intn(100) < 2 }
			h.watch = func() {
				s := h.a.streams[2]
				if s == nil {
					return
				}
				if !injected && len(s.sacked) == 0 && SeqDiff(s.sndNxt, s.sndUna) > 100<<10 {
					injected = true
					for _, ranges := range tc.acks(s.sndUna, s.sndNxt) {
						h.a.HandleDatagram(AppendFrame(nil, &Frame{
							Type: proto.TypeStreamAck, Stream: 2, Off: s.sndUna, Data: ranges,
						}))
					}
					if len(s.sacked) != tc.want {
						t.Errorf("scoreboard holds %d spans (lowest %v), want %d",
							len(s.sacked), s.sacked[:min(len(s.sacked), 4)], tc.want)
					}
				}
				if len(s.sacked) > limit {
					t.Fatalf("scoreboard grew to %d spans, cap is %d", len(s.sacked), limit)
				}
				at := s.sndUna
				for i, sp := range s.sacked {
					if SeqLT(sp.start, at) || (i > 0 && sp.start == at) ||
						SeqGEQ(sp.start, sp.end) || SeqGT(sp.end, s.sndNxt) {
						t.Fatalf("scoreboard %v broken at %d (flight %d..%d)", s.sacked, i, s.sndUna, s.sndNxt)
					}
					at = sp.end
				}
			}
			oneWayTransfer(t, h, Config{}, 1<<20, 2000000)
			if !injected {
				t.Fatal("never had a window in flight to inject into")
			}
		})
	}
}

// TestWindowUpdateLossRecovery drops every window-advertisement frame
// for the first simulated second: the sender exhausts its credit,
// stalls, and must recover purely through window probes once the
// blackout lifts.
func TestWindowUpdateLossRecovery(t *testing.T) {
	h := newHarness(5)
	blackout := true
	h.drop = func(from int, p []byte) bool {
		if !blackout {
			return false
		}
		dropIt := false
		var pr Parser
		_ = pr.Parse(p, func(f Frame) error {
			if f.Type == proto.TypeStreamWindow {
				dropIt = true
			}
			return nil
		})
		return dropIt
	}
	h.schedule(3*time.Second, func() { blackout = false })
	cfg := Config{StreamWindow: 2 << 10, SessionWindow: 4 << 10}
	oneWayTransfer(t, h, cfg, 16<<10, 2000000)
}

func TestBidirectionalManyStreams(t *testing.T) {
	h := newHarness(6)
	h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 10 }
	h.jitter = 15 * time.Millisecond

	const streams = 5
	const size = 8 << 10
	sinks := map[uint64]*sink{}
	sources := map[uint64]*source{}
	closedClean := 0
	cb := func() Callbacks {
		return Callbacks{
			Accept:   func(s *Stream) { s.CloseWrite() },
			Readable: func(s *Stream) { sinks[s.ID()].pump(s) },
			Writable: func(s *Stream) {
				if src, ok := sources[s.ID()]; ok {
					src.pump(s)
				}
			},
			Closed: func(s *Stream, err error) {
				if err != nil {
					t.Fatalf("stream %d: %v", s.ID(), err)
				}
				closedClean++
			},
		}
	}
	h.wire(Config{StreamWindow: 4 << 10, SessionWindow: 16 << 10}, cb(), cb())

	var opened []*Stream
	for i := 0; i < streams; i++ {
		for _, m := range []*Mux{h.a, h.b} {
			s, err := m.Open()
			if err != nil {
				t.Fatal(err)
			}
			data := payload(size + i)
			sources[s.ID()] = &source{data: data}
			sinks[s.ID()] = &sink{}
			opened = append(opened, s)
			sources[s.ID()].pump(s)
		}
	}
	h.run(t, func() bool {
		return closedClean == 4*streams // each stream closes on both ends
	}, 4000000)
	for id, src := range sources {
		if !bytes.Equal(sinks[id].buf.Bytes(), src.data) {
			t.Errorf("stream %d corrupted: got %d want %d bytes",
				id, sinks[id].buf.Len(), len(src.data))
		}
	}
	_ = opened
}

func TestResetPropagates(t *testing.T) {
	h := newHarness(7)
	var peerErr error
	var accepted *Stream
	h.wire(Config{},
		Callbacks{},
		Callbacks{
			Accept: func(s *Stream) { accepted = s },
			Closed: func(s *Stream, err error) { peerErr = err },
		})
	s, _ := h.a.Open()
	s.Write(payload(100))
	h.run(t, func() bool { return accepted != nil }, 1000)
	s.Reset()
	h.run(t, func() bool { return peerErr != nil }, 1000)
	if peerErr != ErrResetByPeer {
		t.Fatalf("peer terminal error = %v, want ErrResetByPeer", peerErr)
	}
	if s.Err() != ErrReset {
		t.Fatalf("local terminal error = %v, want ErrReset", s.Err())
	}
}

// A released stream's ID draws different replies depending on how the
// stream ended. Clean completion: the final cumulative ack, so a
// sender whose FIN-ack was lost converges instead of erroring a
// finished transfer. Reset: a fresh reset, since resets travel
// unreliably. Neither may resurrect the stream.
func TestStaleStreamReplies(t *testing.T) {
	h := newHarness(8)
	var replies []Frame
	h.drop = func(from int, p []byte) bool {
		if from == 1 {
			var pr Parser
			_ = pr.Parse(p, func(f Frame) error {
				if f.Stream != 0 {
					f.Data = append([]byte(nil), f.Data...)
					replies = append(replies, f)
				}
				return nil
			})
		}
		return false
	}
	oneWayTransfer(t, h, Config{}, 1<<10, 100000)

	// Stream 2 completed cleanly and was released on both sides.
	replies = nil
	var buf []byte
	buf = AppendFrame(buf, &Frame{Type: proto.TypeStream, Stream: 2, Off: 0, FIN: true, Data: []byte("x")})
	h.b.HandleDatagram(buf)
	if len(h.b.streams) != 0 {
		t.Fatalf("stale data frame resurrected a stream")
	}
	if len(replies) != 1 || replies[0].Type != proto.TypeStreamAck ||
		replies[0].Off != 1 || !replies[0].FIN {
		t.Fatalf("stale data on a completed stream answered with %+v, want fin-ack at 1", replies)
	}
	h.run(t, func() bool { return len(h.events) == 0 }, 1000)

	// A stream that ended by reset instead draws a fresh reset.
	h2 := newHarness(81)
	var resets []Frame
	h2.drop = func(from int, p []byte) bool {
		if from == 1 {
			var pr Parser
			_ = pr.Parse(p, func(f Frame) error {
				if f.Type == proto.TypeStreamReset {
					resets = append(resets, f)
				}
				return nil
			})
		}
		return false
	}
	var bs *Stream
	var aerr error
	h2.wire(Config{}, Callbacks{
		Closed: func(_ *Stream, err error) { aerr = err },
	}, Callbacks{
		Accept: func(s *Stream) { bs = s },
	})
	as, _ := h2.a.Open()
	as.Write([]byte("hi"))
	h2.run(t, func() bool { return bs != nil }, 1000)
	bs.Reset()
	h2.run(t, func() bool { return aerr != nil }, 1000)
	if aerr != ErrResetByPeer {
		t.Fatalf("reset did not propagate: peer error = %v", aerr)
	}
	resets = nil
	buf = AppendFrame(buf[:0], &Frame{Type: proto.TypeStream, Stream: as.ID(), Off: 0, Data: []byte("x")})
	h2.b.HandleDatagram(buf)
	if len(h2.b.streams) != 0 {
		t.Fatalf("stale data frame resurrected a reset stream")
	}
	if len(resets) != 1 {
		t.Fatalf("stale data on a reset stream drew %d reset replies, want 1", len(resets))
	}
}

func TestPingMeasuresRTT(t *testing.T) {
	h := newHarness(9)
	var got time.Duration
	h.wire(Config{}, Callbacks{Pong: func(_ uint32, rtt time.Duration) { got = rtt }}, Callbacks{})
	if _, err := h.a.Ping(); err != nil {
		t.Fatal(err)
	}
	h.run(t, func() bool { return got != 0 }, 1000)
	if want := 2 * h.delay; got != want {
		t.Fatalf("ping RTT = %v, want %v", got, want)
	}
	if h.a.RTT() != got {
		t.Fatalf("estimator RTT = %v, want %v", h.a.RTT(), got)
	}
}

func TestFailTerminatesStreams(t *testing.T) {
	h := newHarness(10)
	errs := map[uint64]error{}
	h.wire(Config{}, Callbacks{
		Closed: func(s *Stream, err error) { errs[s.ID()] = err },
	}, Callbacks{})
	s1, _ := h.a.Open()
	s2, _ := h.a.Open()
	s1.Write(payload(10))
	sessionDead := fmt.Errorf("session dead")
	h.a.Fail(sessionDead)
	if errs[s1.ID()] != sessionDead || errs[s2.ID()] != sessionDead {
		t.Fatalf("stream errors = %v", errs)
	}
	if _, err := h.a.Open(); err != ErrSessionClosed {
		t.Fatalf("Open after Fail = %v, want ErrSessionClosed", err)
	}
}

// TestDeterministicSchedule runs the same lossy transfer twice from
// the same seed and requires identical datagram counts and final
// clocks — the engine must be deterministic given a deterministic
// transport.
func TestDeterministicSchedule(t *testing.T) {
	runOnce := func() (int, time.Duration) {
		h := newHarness(11)
		h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 20 }
		h.jitter = 20 * time.Millisecond
		oneWayTransfer(t, h, Config{}, 32<<10, 1000000)
		return h.sent, h.clk
	}
	n1, t1 := runOnce()
	n2, t2 := runOnce()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d, %v) vs (%d, %v)", n1, t1, n2, t2)
	}
}

// TestResetReclaimsSessionCredit resets streams with unconsumed (or
// still in-flight, or entirely lost) data, far more cumulative bytes
// than the session window, and requires the session flow-control
// accounting to settle exactly — then proves the point with a
// multiple-of-the-window transfer that would deadlock if any reset
// leaked credit.
func TestResetReclaimsSessionCredit(t *testing.T) {
	const (
		sw   = uint32(4 << 10)
		sess = uint32(8 << 10)
	)
	for _, mode := range []string{"buffered", "inflight", "lost", "peer", "peer-inflight"} {
		t.Run(mode, func(t *testing.T) {
			h := newHarness(13)
			dropData := false
			h.drop = func(from int, p []byte) bool {
				if from != 0 || !dropData {
					return false
				}
				isData := false
				var pr Parser
				_ = pr.Parse(p, func(f Frame) error {
					if f.Type == proto.TypeStream {
						isData = true
					}
					return nil
				})
				return isData
			}
			accepted := map[uint64]*Stream{}
			sinks := map[uint64]*sink{}
			closeBack := false     // final transfer: b half-closes its side
			resetOnAccept := false // peer-inflight: b resets at the first frame
			h.wire(Config{StreamWindow: sw, SessionWindow: sess},
				Callbacks{},
				Callbacks{
					Accept: func(s *Stream) {
						accepted[s.ID()] = s
						if resetOnAccept {
							s.Reset()
							return
						}
						if closeBack {
							s.CloseWrite()
						}
					},
					Readable: func(s *Stream) {
						if k, ok := sinks[s.ID()]; ok {
							k.pump(s)
						}
					},
				})

			for i := 0; i < 6; i++ {
				dropData = mode == "lost"
				resetOnAccept = mode == "peer-inflight"
				s, err := h.a.Open()
				if err != nil {
					t.Fatal(err)
				}
				s.Write(payload(int(sw)))
				if mode == "buffered" || mode == "peer" {
					h.run(t, func() bool {
						bs := accepted[s.ID()]
						if bs == nil {
							return false
						}
						n, _ := bs.ReadReady()
						return uint32(n) == sw
					}, 100000)
				}
				switch mode {
				case "peer":
					accepted[s.ID()].Reset()
				case "peer-inflight":
					// b resets inside Accept, mid-flight: most of the
					// window settles only through the echoed final size.
				default:
					s.Reset()
				}
				h.drain(t, 100000)
				dropData, resetOnAccept = false, false
				if !s.Done() || accepted[s.ID()] == nil || !accepted[s.ID()].Done() {
					t.Fatalf("iteration %d: streams not torn down", i)
				}
			}
			if h.b.rcvSessUsed != h.a.sndSessNxt {
				t.Fatalf("session accounting leaked: b settled %d of a's %d charged bytes",
					h.b.rcvSessUsed, h.a.sndSessNxt)
			}
			if h.a.rcvSessUsed != h.b.sndSessNxt {
				t.Fatalf("reverse accounting leaked: a settled %d of b's %d",
					h.a.rcvSessUsed, h.b.sndSessNxt)
			}
			if h.b.rcvInUse != 0 || h.a.rcvInUse != 0 {
				t.Fatalf("buffered accounting leaked: a=%d b=%d", h.a.rcvInUse, h.b.rcvInUse)
			}

			// The proof: a transfer of 3x the session window still flows.
			closeBack = true
			data := payload(int(3 * sess))
			src := &source{data: data}
			s, err := h.a.Open()
			if err != nil {
				t.Fatal(err)
			}
			k := &sink{}
			sinks[s.ID()] = k
			h.a.cb.Writable = func(ws *Stream) {
				if ws == s {
					src.pump(ws)
				}
			}
			src.pump(s)
			h.run(t, func() bool { return k.eof && s.Done() }, 400000)
			if !bytes.Equal(k.buf.Bytes(), data) {
				t.Fatalf("post-reset transfer corrupted: %d vs %d bytes", k.buf.Len(), len(data))
			}
		})
	}
}

// TestResetRecordsBounded pins the reset-record FIFO cap: a session
// that resets streams forever must not grow per-session state without
// bound on either endpoint.
func TestResetRecordsBounded(t *testing.T) {
	h := newHarness(14)
	h.wire(Config{}, Callbacks{}, Callbacks{})
	for i := 0; i < maxResetRecords+100; i++ {
		s, err := h.a.Open()
		if err != nil {
			t.Fatal(err)
		}
		s.Write([]byte("x"))
		s.Reset()
	}
	h.drain(t, 100000)
	for name, m := range map[string]*Mux{"a": h.a, "b": h.b} {
		if len(m.resets) > maxResetRecords {
			t.Errorf("%s: %d reset records, cap is %d", name, len(m.resets), maxResetRecords)
		}
		if len(m.resets) != len(m.resetOrder) {
			t.Errorf("%s: records/order out of sync: %d vs %d",
				name, len(m.resets), len(m.resetOrder))
		}
	}
}

// TestPingProbesBounded pins both guards on the outstanding-ping list:
// probes whose pong can no longer arrive expire by age, and a burst of
// probes within one RTO window hits the hard cap.
func TestPingProbesBounded(t *testing.T) {
	h := newHarness(15)
	h.drop = func(int, []byte) bool { return true } // every ping is lost
	h.wire(Config{}, Callbacks{}, Callbacks{})

	count := 0
	var tick func()
	tick = func() {
		if count++; count <= 20 {
			if _, err := h.a.Ping(); err != nil {
				t.Fatal(err)
			}
			h.schedule(3*time.Second, tick) // well past 4x the initial RTO
		}
	}
	tick()
	h.drain(t, 100000)
	if len(h.a.pings) > 2 {
		t.Fatalf("%d lost ping probes survived expiry, want <= 2", len(h.a.pings))
	}

	for i := 0; i < maxPings+50; i++ {
		if _, err := h.a.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.a.pings) > maxPings {
		t.Fatalf("%d ping probes, cap is %d", len(h.a.pings), maxPings)
	}
}

// TestDiscardReadsFlushesWindow: the credit DiscardReads frees must
// leave the machine immediately, not ride the next unrelated engine
// event — a window-blocked sender otherwise stalls until its probe
// RTO fires.
func TestDiscardReadsFlushesWindow(t *testing.T) {
	h := newHarness(16)
	var bs *Stream
	h.wire(Config{StreamWindow: 2 << 10, SessionWindow: 4 << 10},
		Callbacks{},
		Callbacks{Accept: func(s *Stream) { bs = s }})
	s, err := h.a.Open()
	if err != nil {
		t.Fatal(err)
	}
	s.Write(payload(8 << 10)) // fills the 2 KiB stream window, rest refused
	h.run(t, func() bool {
		if bs == nil {
			return false
		}
		n, _ := bs.ReadReady()
		return n == 2<<10
	}, 100000)
	h.drain(t, 100000) // settle acks; a is now blocked on zero credit

	start := h.clk
	bs.DiscardReads()
	h.run(t, func() bool { return s.WriteBudget() > 0 }, 10000)
	if waited := h.clk - start; waited > 3*h.delay {
		t.Fatalf("freed credit took %v to reach the sender (one-way delay %v): not flushed",
			waited, h.delay)
	}
}

// TestSessionBufferBound: a peer that ignores session flow control
// (here: three streams each pushing a full stream window) must not
// make the receiver buffer more than SessionWindow in total.
func TestSessionBufferBound(t *testing.T) {
	const sess = 8 << 10
	h := newHarness(17)
	accepted := map[uint64]*Stream{}
	h.wire(Config{StreamWindow: sess, SessionWindow: sess},
		Callbacks{},
		Callbacks{Accept: func(s *Stream) { accepted[s.ID()] = s }})

	// Rogue frames injected straight into b, bypassing a's conforming
	// sender: b expects even peer stream IDs.
	var buf []byte
	data := payload(sess)
	for _, id := range []uint64{2, 4, 6} {
		for off := 0; off < len(data); off += 1024 {
			buf = AppendFrame(buf[:0], &Frame{
				Type: proto.TypeStream, Stream: id,
				Off: uint32(off), Data: data[off : off+1024],
			})
			h.b.HandleDatagram(buf)
		}
	}
	if h.b.rcvInUse > sess {
		t.Fatalf("rogue peer buffered %d bytes, session bound is %d", h.b.rcvInUse, sess)
	}
	total := 0
	for _, s := range accepted {
		total += s.rcv.Len()
	}
	if total != h.b.rcvInUse {
		t.Fatalf("in-use accounting drifted: tracked %d, actual %d", h.b.rcvInUse, total)
	}
	if total != sess {
		t.Fatalf("buffered %d bytes, want the full session window %d", total, sess)
	}
}

// TestSessionBufferBoundCountsHoles: out-of-order bytes lie in the
// receive queue at their offsets, so a byte at the far end of a stream's
// window makes the queue a window long, hole and all, and that is what
// the session is charged. A peer that sends one byte at the window's
// edge on every stream gets as many windows buffered as the session
// holds, not one per stream. And single bytes scattered with a gap
// between each open no more than maxSpans ranges; what they refused
// arrives in order and the stream reads back intact.
func TestSessionBufferBoundCountsHoles(t *testing.T) {
	const window = 64 << 10
	h := newHarness(17)
	accepted := map[uint64]*Stream{}
	h.wire(Config{StreamWindow: window, SessionWindow: 2 * window},
		Callbacks{},
		Callbacks{Accept: func(s *Stream) { accepted[s.ID()] = s }})
	var buf []byte
	for id := uint64(2); id <= 16; id += 2 {
		buf = AppendFrame(buf[:0], &Frame{Type: proto.TypeStream, Stream: id, Off: window - 1, Data: []byte{1}})
		h.b.HandleDatagram(buf)
	}
	held, capacity := 0, 0
	for _, s := range accepted {
		if s.rcv.Len() > 0 {
			held++
		}
		capacity += cap(s.rcv.buf)
	}
	if h.b.rcvInUse != 2*window || held != 2 {
		t.Errorf("one byte at the window edge on %d streams: %d streams hold bytes, %d charged, want 2 streams, %d",
			len(accepted), held, h.b.rcvInUse, 2*window)
	}
	if capacity > 2*window*2 {
		t.Errorf("receive queues hold %d KiB of capacity for a %d KiB session window", capacity>>10, 2*window>>10)
	}

	h = newHarness(17)
	rcv := &sink{}
	h.wire(Config{}, Callbacks{}, Callbacks{Readable: func(s *Stream) { rcv.pump(s) }})
	data := payload(4000)
	for off := 1; off < len(data)/2; off += 2 {
		buf = AppendFrame(buf[:0], &Frame{Type: proto.TypeStream, Stream: 2, Off: uint32(off), Data: data[off : off+1]})
		h.b.HandleDatagram(buf)
	}
	s := h.b.streams[2]
	reach := uint32(0)
	if n := len(s.ooo); n > 0 {
		reach = s.ooo[n-1].end
	}
	if limit := h.b.maxSpans(); len(s.ooo) != limit || h.b.rcvInUse != int(reach) {
		t.Errorf("%d single bytes a gap apart: %d ranges reaching %d, %d bytes charged; want the cap, %d ranges, and the queue as far as they reach",
			len(data)/4, len(s.ooo), reach, h.b.rcvInUse, limit)
	}
	for off := 0; off < len(data); off += 1000 {
		buf = AppendFrame(buf[:0], &Frame{Type: proto.TypeStream, Stream: 2, Off: uint32(off), Data: data[off : off+1000]})
		h.b.HandleDatagram(buf)
	}
	if !bytes.Equal(rcv.buf.Bytes(), data) || len(s.ooo) != 0 || h.b.rcvInUse != 0 {
		t.Errorf("read %d of %d bytes back (intact: %v), %d ranges and %d bytes charged left",
			rcv.buf.Len(), len(data), bytes.Equal(rcv.buf.Bytes(), data), len(s.ooo), h.b.rcvInUse)
	}
}

func TestRTOBacksOffAndRecovers(t *testing.T) {
	h := newHarness(12)
	// Black out everything after the first exchange, then lift it.
	blackout := false
	h.drop = func(int, []byte) bool { return blackout }
	rcv := &sink{}
	done := false
	h.wire(Config{},
		Callbacks{},
		Callbacks{
			Accept:   func(s *Stream) { s.CloseWrite() },
			Readable: func(s *Stream) { rcv.pump(s) },
			Closed:   func(s *Stream, err error) { done = true },
		})
	s, _ := h.a.Open()
	data := payload(2 << 10)
	s.Write(data)
	h.run(t, func() bool { return rcv.buf.Len() > 0 }, 100000)
	blackout = true
	h.schedule(5*time.Second, func() { blackout = false })
	s.Write(data)
	s.CloseWrite()
	h.run(t, func() bool { return done && s.Done() }, 500000)
	want := append(append([]byte(nil), data...), data...)
	if !bytes.Equal(rcv.buf.Bytes(), want) {
		t.Fatalf("post-blackout transfer corrupted: %d vs %d bytes", rcv.buf.Len(), len(want))
	}
}
