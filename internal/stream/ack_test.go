package stream

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"natpunch/internal/proto"
)

// The tests here pin the receiver's ack policy (flush, handleData): an
// owed ack that nobody is waiting for leaves with the next datagram that
// leaves anyway or when the ack timer says so, and the acks somebody is
// waiting for leave in the flush their frame arrived in. Each runs a
// datagram per entry and with flights arriving as entries.

var bothEntryShapes = []int{0, 64} // harness.batch

// wireLog records every datagram either side sends: when, which way,
// and its frames (Data kept for acks only: their ranges).
type wireLog []wireDgram

type wireDgram struct {
	at     time.Duration
	from   int
	frames []Frame
}

func recordWire(h *harness) *wireLog {
	var log wireLog
	var pr Parser
	h.tap = func(from int, p []byte) {
		d := wireDgram{at: h.clk, from: from}
		_ = pr.Parse(p, func(f Frame) error {
			if f.Type == proto.TypeStreamAck {
				f.Data = append([]byte(nil), f.Data...)
			} else {
				f.Data = nil
			}
			d.frames = append(d.frames, f)
			return nil
		})
		log = append(log, d)
	}
	return &log
}

// bareAck reports whether the datagram is acks and nothing but the
// credit that rides them: no stream frame, and an ack first.
func (d wireDgram) bareAck() bool {
	for _, f := range d.frames {
		if f.Type != proto.TypeStreamAck && f.Type != proto.TypeStreamWindow {
			return false
		}
	}
	return len(d.frames) > 0 && d.frames[0].Type == proto.TypeStreamAck
}

// TestPingPongIsTwoDatagramsPerRoundTrip: a request smaller than a
// segment and its response, N times over, are 2N datagrams: every one
// after the first carries the ack of what it answers in front of its
// payload and nothing else, and the only bare ack is the timer's, for
// the last response (with the credit the responses' reads freed).
// The application answers inside Readable, or, like the facade's reader
// goroutine, in an entry of its own that follows: then the receive
// path's flush has held the ack before the answer is written.
func TestPingPongIsTwoDatagramsPerRoundTrip(t *testing.T) {
	const rounds, size = 200, 256
	request := func(round int) []byte {
		p := payload(size)
		p[0], p[1] = byte(round), byte(round>>8)
		return p
	}
	response := func(round int) []byte {
		p := request(round)
		for i := range p {
			p[i] = ^p[i]
		}
		return p
	}
	for _, batch := range bothEntryShapes {
		for _, inline := range []bool{true, false} {
			t.Run(fmt.Sprintf("batch=%d/inline=%v", batch, inline), func(t *testing.T) {
				h := newHarness(41)
				h.batch = batch
				wire := recordWire(h)
				// answer runs fn now, or as the next entry at this instant.
				answer := func(fn func()) {
					if inline {
						fn()
					} else {
						h.schedule(0, fn)
					}
				}
				var gotA, gotB bytes.Buffer
				served, done := 0, 0
				take := func(s *Stream, into *bytes.Buffer) bool {
					var tmp [size]byte
					n, _ := s.Read(tmp[:size-into.Len()])
					into.Write(tmp[:n])
					return into.Len() == size
				}
				h.wire(Config{},
					Callbacks{Readable: func(s *Stream) {
						answer(func() {
							if !take(s, &gotA) {
								return
							}
							done++
							if !bytes.Equal(gotA.Bytes(), response(done)) {
								t.Fatalf("response %d differs from what was sent", done)
							}
							gotA.Reset()
							if done < rounds {
								s.Write(request(done + 1))
							}
						})
					}},
					Callbacks{Readable: func(s *Stream) {
						answer(func() {
							if !take(s, &gotB) {
								return
							}
							served++
							if !bytes.Equal(gotB.Bytes(), request(served)) {
								t.Fatalf("request %d differs from what was sent", served)
							}
							gotB.Reset()
							s.Write(response(served))
						})
					}})
				s, err := h.a.Open()
				if err != nil {
					t.Fatal(err)
				}
				s.Write(request(1))
				h.endEntry()
				h.run(t, func() bool { return done == rounds }, 100*rounds)
				h.drain(t, 1000)

				var data, bare [2]int
				lastData := 0
				for i, d := range *wire {
					if d.bareAck() {
						bare[d.from]++
						continue
					}
					data[d.from]++
					lastData = i
					if i == 0 {
						continue // the first request answers nothing
					}
					if len(d.frames) != 2 || d.frames[0].Type != proto.TypeStreamAck || d.frames[1].Type != proto.TypeStream {
						t.Fatalf("datagram %d is %+v, want the ack of what it answers and then its payload", i, d.frames)
					}
					if want := uint32(data[1-d.from] * size); d.frames[0].Off != want {
						t.Fatalf("datagram %d acknowledges %d, want %d: everything it answers", i, d.frames[0].Off, want)
					}
				}
				if data != [2]int{rounds, rounds} {
					t.Errorf("%d + %d datagrams with payload, want %d each way", data[0], data[1], rounds)
				}
				if bare != [2]int{1, 0} {
					t.Errorf("%d + %d bare acks, want the one for the last response", bare[0], bare[1])
				}
				if last := (*wire)[len(*wire)-1]; !last.bareAck() || lastData != len(*wire)-2 ||
					last.at != (*wire)[lastData].at+h.delay+maxAckDelay {
					t.Errorf("the bare ack is not the timer's, at the end: the last payload left at %v, the last datagram %+v",
						(*wire)[lastData].at, last)
				}
				if h.rtxBytes != 0 || h.a.timeouts+h.b.timeouts != 0 {
					t.Errorf("%d bytes resent, %d timeouts", h.rtxBytes, h.a.timeouts+h.b.timeouts)
				}
			})
		}
	}
}

// TestLoneWriteAckedOnceByTimer: a small write with nothing to ride on
// is acknowledged once, by the ack timer, ackDelay after it arrived.
// The credit the reads freed rides that ack, stream and session, once
// it adds up to a segment since credit last left, and not before. A
// thousand of them later the sender's timer has never found the stream
// due and its timeout is still the floor: the RTT samples include the
// held ack's wait, and ackDelay is too short for that to matter.
func TestLoneWriteAckedOnceByTimer(t *testing.T) {
	for _, batch := range bothEntryShapes {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			h := newHarness(42)
			h.batch = batch
			wire := recordWire(h)
			rcv := &sink{}
			h.wire(Config{}, Callbacks{}, Callbacks{Readable: func(s *Stream) { rcv.pump(s) }})
			s, err := h.a.Open()
			if err != nil {
				t.Fatal(err)
			}
			msg := payload(100)
			var credited uint32 // read when credit last left
			for i := 1; i <= 1000; i++ {
				*wire = (*wire)[:0]
				wrote := h.clk
				s.Write(msg)
				h.endEntry()
				h.drain(t, 100)
				if len(*wire) != 2 {
					t.Fatalf("write %d: %d datagrams on the wire, want the write and its ack", i, len(*wire))
				}
				ack, read := (*wire)[1], uint32(i*len(msg))
				want := []Frame{{Type: proto.TypeStreamAck, Stream: s.ID(), Off: read}}
				if read-credited >= maxDatagram-frameOverhead {
					credited = read
					want = append(want,
						Frame{Type: proto.TypeStreamWindow, Stream: s.ID(), Off: read + h.b.cfg.StreamWindow},
						Frame{Type: proto.TypeStreamWindow, Off: read + h.b.cfg.SessionWindow})
				}
				if ack.from != 1 || !slices.EqualFunc(ack.frames, want, func(a, b Frame) bool {
					return a.Type == b.Type && a.Stream == b.Stream && a.Off == b.Off && a.FIN == b.FIN && len(a.Data) == len(b.Data)
				}) {
					t.Fatalf("write %d answered by %+v, want %+v", i, ack, want)
				}
				if want := wrote + h.delay + maxAckDelay; ack.at != want {
					t.Fatalf("write %d of %v acknowledged at %v, want %v: %v after it arrived", i, wrote, ack.at, want, maxAckDelay)
				}
			}
			if rcv.buf.Len() != 1000*len(msg) {
				t.Fatalf("receiver read %d bytes", rcv.buf.Len())
			}
			floor := minRTO
			if h.a.timeouts != 0 || s.rto != floor || h.a.rtt.RTO() != floor {
				t.Errorf("sender saw %d timeouts and stands at a timeout of %v (estimator %v), want none and the %v floor",
					h.a.timeouts, s.rto, h.a.rtt.RTO(), floor)
			}
		})
	}
}

// TestAckThatMayNotWait: the frames whose ack somebody is waiting for
// draw it in the flush of the entry they arrived in; the frames before
// them did not (held is the control: the timer sends those).
func TestAckThatMayNotWait(t *testing.T) {
	seg := maxDatagram - frameOverhead
	data := func(off, n int) Frame {
		return Frame{Type: proto.TypeStream, Stream: 2, Off: uint32(off), Data: payload(n)}
	}
	fin := func(f Frame) Frame { f.FIN = true; return f }
	cases := []struct {
		name   string
		cfg    Config
		before []Frame // arrive first, an entry each
		frame  Frame
		held   bool
		ack    uint32 // the cumulative offset the ack reports
		ranges []byte
		fin    bool
	}{
		{name: "in order, small", frame: data(0, 100), held: true, ack: 100},
		{name: "in order, one full segment", frame: data(0, seg), held: true, ack: uint32(seg)},
		{name: "in order, small after a full segment", before: []Frame{data(0, seg)}, frame: data(seg, 100), held: true, ack: uint32(seg + 100)},
		{name: "second full segment", before: []Frame{data(0, seg)}, frame: data(seg, seg), ack: uint32(2 * seg)},
		{name: "two segments' worth in pieces", before: []Frame{data(0, seg), data(seg, seg/2)}, frame: data(seg+seg/2, seg-seg/2), ack: uint32(2 * seg)},
		{name: "duplicate", before: []Frame{data(0, 100)}, frame: data(0, 100), ack: 100},
		{name: "partly duplicate", before: []Frame{data(0, 100)}, frame: data(50, 100), ack: 150},
		{name: "out of order", frame: data(500, 100), ack: 0, ranges: ackRangesOf(500, 600)},
		{name: "above a hole", before: []Frame{data(500, 100)}, frame: data(700, 100), ack: 0, ranges: ackRangesOf(500, 600, 700, 800)},
		{name: "in order below a hole", before: []Frame{data(500, 100)}, frame: data(0, 100), ack: 100, ranges: ackRangesOf(500, 600)},
		{name: "fills the hole", before: []Frame{data(100, 100)}, frame: data(0, 100), ack: 200},
		{name: "FIN", frame: fin(data(0, 100)), ack: 100, fin: true},
		{name: "bare FIN", before: []Frame{data(0, 100)}, frame: fin(data(100, 0)), ack: 100, fin: true},
		{name: "window probe", before: []Frame{data(0, 100)}, frame: data(100, 0), ack: 100},
		{name: "trimmed by the stream window", cfg: Config{StreamWindow: 1000}, frame: data(0, seg), ack: 1000},
		{name: "refused by the stream window", cfg: Config{StreamWindow: 1000}, before: []Frame{data(0, 1000)}, frame: data(1000, 100), ack: 1000},
		{name: "trimmed by the session window", cfg: Config{SessionWindow: 1000}, before: []Frame{data(0, 950)}, frame: data(950, 100), ack: 1000},
		{name: "refused by the session window", cfg: Config{SessionWindow: 1000}, before: []Frame{data(0, 1000)}, frame: data(1000, 100), ack: 1000},
	}
	for _, batch := range bothEntryShapes {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("batch=%d/%s", batch, tc.name), func(t *testing.T) {
				so := newSoloBatch(false, tc.cfg, batch)
				for _, f := range tc.before {
					so.feed(f)
					so.h.endEntry()
				}
				sent := so.sent
				so.feed(tc.frame)
				arrived := so.h.clk
				so.h.endEntry()
				if tc.held {
					if so.sent != sent {
						t.Fatalf("the entry sent %d datagrams, want its ack held", so.sent-sent)
					}
					so.h.drain(t, 10)
					// The timer an earlier held ack armed is this one's too.
					if waited := so.h.clk - arrived; waited <= 0 || waited > maxAckDelay {
						t.Fatalf("the ack waited %v for the timer, want no more than %v", waited, maxAckDelay)
					}
				}
				if so.sent != sent+1 {
					t.Fatalf("%d datagrams sent, want one", so.sent-sent)
				}
				frames := so.lastFrames()
				if got := frames[0]; got.Type != proto.TypeStreamAck || got.Stream != 2 || got.Off != tc.ack ||
					got.FIN != tc.fin || !bytes.Equal(got.Data, tc.ranges) {
					t.Fatalf("answered with %+v, want an ack at %d (FIN %v) with ranges %x", frames, tc.ack, tc.fin, tc.ranges)
				}
				// Nothing is owed any more, and the timer, when it comes, agrees.
				so.h.drain(t, 10)
				if s := so.m.streams[2]; so.sent != sent+1 || s.ackPending || s.ackOwed != 0 || so.m.ackTimer != nil {
					t.Fatalf("after the ack: %d more datagrams, ackPending %v, %d bytes counted, timer %v",
						so.sent-sent-1, s.ackPending, s.ackOwed, so.m.ackTimer)
				}
			})
		}
	}
}

// TestAckDelayFollowsMinRTO: a held ack is sent 5 ms after the
// segment it acknowledges, no more than a quarter of minRTO.
func TestAckDelayFollowsMinRTO(t *testing.T) {
	if maxAckDelay > minRTO/4 {
		t.Fatalf("maxAckDelay %v exceeds a quarter of minRTO (%v)", maxAckDelay, minRTO)
	}
	const want = 5 * time.Millisecond
	so := newSolo(false, Config{})
	so.feed(Frame{Type: proto.TypeStream, Stream: 2, Data: payload(100)})
	arrived := so.h.clk
	so.h.drain(t, 10)
	if maxAckDelay != want || so.sent != 1 || so.h.clk-arrived != want {
		t.Errorf("delay %v, %d acks sent %v after the segment, want one after %v",
			maxAckDelay, so.sent, so.h.clk-arrived, want)
	}
}

// TestNoTimerAfterShutdown: a mux closed or failed with an ack held and
// data in flight leaves no timer behind, and nothing more is sent.
func TestNoTimerAfterShutdown(t *testing.T) {
	for _, batch := range bothEntryShapes {
		for _, how := range []string{"Close", "Fail"} {
			t.Run(fmt.Sprintf("batch=%d/%s", batch, how), func(t *testing.T) {
				h := newHarness(43)
				h.batch = batch
				h.wire(Config{}, Callbacks{}, Callbacks{})
				s, err := h.a.Open()
				if err != nil {
					t.Fatal(err)
				}
				s.Write(payload(100))
				h.endEntry()
				h.run(t, func() bool { return len(h.b.streams) == 1 }, 10)
				if h.b.ackTimer == nil || h.ta.live() != 1 || h.tb.live() != 1 {
					t.Fatalf("scenario did not run: ack timer %v, %d sender and %d receiver timers live, want the held ack's and the retransmission timer",
						h.b.ackTimer, h.ta.live(), h.tb.live())
				}
				for _, m := range []*Mux{h.a, h.b} {
					if how == "Close" {
						m.Close()
					} else {
						m.Fail(fmt.Errorf("session dead"))
					}
				}
				h.endEntry()
				if h.ta.live() != 0 || h.tb.live() != 0 {
					t.Errorf("%d sender and %d receiver timers live after %s, want none", h.ta.live(), h.tb.live(), how)
				}
				sent := h.sent
				h.drain(t, 100)
				if h.sent != sent {
					t.Errorf("%d datagrams sent after %s", h.sent-sent, how)
				}
			})
		}
	}
}

// TestCompletingStreamSendsFinalAck: a stream that completes while a
// frame is being handled — a data-less FIN finding everything read and
// the stream's own FIN acknowledged, or on a transport with an end of
// entry a stream in discard mode taking a whole run, FIN included — is
// released before any flush can speak for it. Its last ack leaves all
// the same, as a control frame, and the peer finishes a round trip after
// its half-close, not a timeout later.
func TestCompletingStreamSendsFinalAck(t *testing.T) {
	for _, batch := range bothEntryShapes {
		for _, discard := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch=%d/discard=%v", batch, discard), func(t *testing.T) {
				h := newHarness(44)
				h.batch = batch
				rcv := &sink{}
				released := false
				h.wire(Config{}, Callbacks{}, Callbacks{
					Accept: func(s *Stream) {
						s.CloseWrite()
						if discard {
							s.DiscardReads()
						}
					},
					Readable: func(s *Stream) { rcv.pump(s) },
					Closed:   func(*Stream, error) { released = true },
				})
				s, err := h.a.Open()
				if err != nil {
					t.Fatal(err)
				}
				s.Write(payload(100))
				h.endEntry()
				h.drain(t, 100) // b's FIN is acknowledged, everything so far is read
				if r := h.b.streams[s.id]; r == nil || !r.finAcked || r.rcv.Len() != 0 {
					t.Fatalf("scenario did not run: receiver stream %+v", r)
				}

				closedAt := h.clk
				s.Write(payload(3 * (maxDatagram - frameOverhead)))
				s.CloseWrite() // the FIN leaves alone, behind the three segments
				h.endEntry()
				h.run(t, func() bool { return s.Done() }, 100)
				if !released || s.Err() != nil {
					t.Fatalf("receiver released %v, sender finished with %v", released, s.Err())
				}
				if h.clk != closedAt+2*h.delay || h.rtxBytes != 0 || h.a.timeouts != 0 {
					t.Errorf("sender finished %v after its half-close having resent %d bytes over %d timeouts, want one round trip (%v) and neither",
						h.clk-closedAt, h.rtxBytes, h.a.timeouts, 2*h.delay)
				}
			})
		}
	}
}
