package stream

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"natpunch/internal/proto"
)

// The tests here run the harness in batch mode (harness.batch): the
// transports have an end of entry, as realudp's has, and a flight
// arrives as one event. What they pin is the receive path's one flush
// per entry — acks, repairs and wake-ups per run, not per datagram.

// ackTap records the ack frames and counts the datagrams b sends.
type ackTap struct {
	dgrams int
	acks   []Frame
}

func (k *ackTap) tap(from int, p []byte) {
	if from != 1 {
		return
	}
	k.dgrams++
	var pr Parser
	_ = pr.Parse(p, func(f Frame) error {
		if f.Type == proto.TypeStreamAck {
			f.Data = append([]byte(nil), f.Data...)
			k.acks = append(k.acks, f)
		}
		return nil
	})
}

// writeRun writes n full segments on a fresh stream of a, as one entry.
func writeRun(t *testing.T, h *harness, n int) (s *Stream, seg uint32) {
	t.Helper()
	s, err := h.a.Open()
	if err != nil {
		t.Fatal(err)
	}
	seg = uint32(maxDatagram - frameOverhead)
	data := payload(n * int(seg))
	before := h.sent
	if got := s.Write(data); got != len(data) {
		t.Fatalf("write took %d of %d bytes", got, len(data))
	}
	h.endEntry()
	if h.sent-before != n {
		t.Fatalf("write left as %d datagrams, want %d", h.sent-before, n)
	}
	return s, seg
}

// TestRunDrawsOneAck: a 64 KiB write's 57 datagrams, delivered as one
// entry, are answered by one datagram: one ack at the run's end. The
// sender takes one advancing ack and fires one Writable. Delivered an
// entry each — any transport without transport.Deferrer — every second
// full segment draws its ack, and the 57th, which has no partner, the
// ack timer's: 29 of each, where an ack per datagram was 57.
func TestRunDrawsOneAck(t *testing.T) {
	const run = 57
	for _, c := range []struct{ batch, want int }{{64, 1}, {0, (run + 1) / 2}} {
		t.Run(fmt.Sprintf("batch=%d", c.batch), func(t *testing.T) {
			h := newHarness(31)
			h.batch = c.batch
			var b ackTap
			h.tap = b.tap
			writable := 0
			h.wire(Config{}, Callbacks{Writable: func(*Stream) { writable++ }}, Callbacks{})
			s, seg := writeRun(t, h, run)
			h.drain(t, 1000)

			if b.dgrams != c.want || len(b.acks) != c.want {
				t.Fatalf("receiver answered %d datagrams with %d datagrams carrying %d acks, want %d",
					run, b.dgrams, len(b.acks), c.want)
			}
			last := b.acks[len(b.acks)-1]
			if last.Off != run*seg || len(last.Data) != 0 {
				t.Errorf("last ack is at %d with %d range bytes, want %d and none", last.Off, len(last.Data), run*seg)
			}
			if s.sndUna != run*seg || s.inFlight() {
				t.Errorf("sender stands at %d of %d", s.sndUna, run*seg)
			}
			if writable != c.want {
				t.Errorf("sender fired Writable %d times, want %d", writable, c.want)
			}
		})
	}
}

// TestRunWithHoleRepairedInRoundTrip: the same run with its tenth
// datagram lost draws one ack — cumulative to the hole, one range for
// everything above it — and that one ack is enough for the sender: the
// hole goes out again when the ack arrives and is filled a round trip
// after the run, the retransmission timer never involved.
func TestRunWithHoleRepairedInRoundTrip(t *testing.T) {
	const run, lost = 57, 10
	h := newHarness(32)
	h.batch = 64
	h.drop = dropDataNth(lost)
	var b ackTap
	h.tap = b.tap
	h.wire(Config{}, Callbacks{}, Callbacks{})
	s, seg := writeRun(t, h, run)
	var filledAt, ackedAt time.Duration
	h.watch = func() {
		if r := h.b.streams[s.id]; r != nil && filledAt == 0 && r.rcvNxt == run*seg {
			filledAt = h.clk
		}
		if ackedAt == 0 && s.sndUna == run*seg {
			ackedAt = h.clk
		}
	}
	h.drain(t, 1000)

	if len(b.acks) != 2 || b.dgrams != 2 {
		t.Fatalf("receiver sent %d datagrams carrying %d acks, want one for the run and one for the repair", b.dgrams, len(b.acks))
	}
	hole := b.acks[0]
	if want := ackRangesOf(lost*seg, run*seg); hole.Off != (lost-1)*seg || !bytes.Equal(hole.Data, want) {
		t.Errorf("the run's ack is at %d with ranges %x, want %d with %x", hole.Off, hole.Data, (lost-1)*seg, want)
	}
	if h.rtxBytes != int(seg) {
		t.Errorf("retransmitted %d bytes, want the lost segment's %d", h.rtxBytes, seg)
	}
	if filledAt != 3*h.delay || ackedAt != 4*h.delay {
		t.Errorf("hole filled at %v and everything acknowledged at %v, want %v and %v: a round trip after the run, no timeout",
			filledAt, ackedAt, 3*h.delay, 4*h.delay)
	}
}

// TestStreamCompletingInsideRunIsAcked: a receiver that reads inside
// Readable sees the stream complete while the run whose last segment
// carried the FIN is still being delivered — the stream is released
// with the entry's flush still due, and that flush cannot speak for it
// any more. The read's own flush has: the sender gets its final ack and
// finishes without resending a byte. (The session window is a quarter
// of the write, so the half-close finds bytes still waiting for credit
// and the FIN rides the last of them.)
func TestStreamCompletingInsideRunIsAcked(t *testing.T) {
	h := newHarness(33)
	h.batch = 64
	src, rcv := &source{data: payload(256 << 10)}, &sink{}
	var releasedAt time.Duration
	flushDueAtRelease := false
	h.wire(Config{SessionWindow: 64 << 10},
		Callbacks{Writable: func(s *Stream) { src.pump(s) }},
		Callbacks{
			Accept:   func(s *Stream) { s.CloseWrite() },
			Readable: func(s *Stream) { rcv.pump(s) },
			Closed: func(s *Stream, err error) {
				if err != nil {
					t.Fatalf("receiver stream closed with error: %v", err)
				}
				rcv.done, releasedAt, flushDueAtRelease = true, h.clk, h.b.flushDue
			},
		})
	s, err := h.a.Open()
	if err != nil {
		t.Fatal(err)
	}
	src.pump(s)
	h.endEntry()
	h.run(t, func() bool { return rcv.done && s.Done() }, 200000)

	if !flushDueAtRelease {
		t.Fatal("scenario did not run: the receiver's stream was not released inside a run")
	}
	if !bytes.Equal(rcv.buf.Bytes(), src.data) || !rcv.eof {
		t.Fatalf("receiver got %d of %d bytes, EOF %v", rcv.buf.Len(), len(src.data), rcv.eof)
	}
	if s.Err() != nil || h.rtxBytes != 0 {
		t.Errorf("sender finished with %v after retransmitting %d bytes: an acknowledgment went missing", s.Err(), h.rtxBytes)
	}
	if h.clk != releasedAt+h.delay {
		t.Errorf("receiver finished at %v, sender at %v: want one link delay later, on the final ack", releasedAt, h.clk)
	}
}

// TestTransfersByEntry: the link-fault transfers of engine_test.go with
// flights arriving as entries. Recovery does not lean on an ack per
// datagram: byte-exact, accounting settled, and at 1 % loss still about
// one byte resent per byte lost.
func TestTransfersByEntry(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		h := newHarness(34)
		h.batch = 64
		oneWayTransfer(t, h, Config{}, 1<<20, 200000)
		if h.rtxBytes != 0 {
			t.Errorf("lossless transfer retransmitted %d bytes", h.rtxBytes)
		}
	})
	t.Run("loss", func(t *testing.T) {
		h := newHarness(35)
		h.batch = 64
		h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 25 }
		oneWayTransfer(t, h, Config{}, 50<<10, 400000)
	})
	t.Run("reorder+dup", func(t *testing.T) {
		h := newHarness(36)
		h.batch = 64
		h.jitter = 40 * time.Millisecond
		h.dupEvery = 3
		oneWayTransfer(t, h, Config{}, 50<<10, 400000)
	})
	t.Run("loss+dup+small windows", func(t *testing.T) {
		h := newHarness(37)
		h.batch = 5
		h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 15 }
		h.dupEvery = 5
		cfg := Config{StreamWindow: 4 << 10, SessionWindow: 8 << 10}
		oneWayTransfer(t, h, cfg, 64<<10, 2000000)
	})
	t.Run("two-way", func(t *testing.T) {
		h := newHarness(38)
		h.batch = 16
		h.drop = func(int, []byte) bool { return h.rng.Intn(10) == 0 }
		h.dupEvery = 9
		twoWayTransfer(t, h, Config{StreamWindow: 8 << 10, SessionWindow: 16 << 10}, 40<<10, 1_000_000)
	})
	t.Run("one percent", func(t *testing.T) {
		const size = 4 << 20
		h := newHarness(18)
		h.batch = 64
		seen := make(map[uint32]bool)
		h.drop = func(from int, p []byte) bool {
			off, ok := dataTo(from, p)
			if !ok || seen[off] {
				return false
			}
			seen[off] = true
			return len(seen)%100 == 37
		}
		oneWayTransfer(t, h, Config{}, size, 4000000)
		if ratio := float64(h.rtxBytes) / size; ratio > 0.015 {
			t.Errorf("retransmitted %.4f bytes per byte delivered, want <= 0.015", ratio)
		}
		t.Logf("%v, %.4f retransmitted", h.clk, float64(h.rtxBytes)/size)
	})
}
