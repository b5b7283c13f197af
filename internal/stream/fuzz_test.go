package stream

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"natpunch/internal/proto"
)

// capturedDatagrams runs a lossy, reordering, duplicating bidirectional
// transfer between two muxes and records every datagram either side
// sent: real stream-layer traffic (data, acks, windows, resets, pings,
// multi-frame packings) for seeding the fuzzers. It runs once
// reordered, a datagram per entry, and once in order with flights
// arriving as entries, which packs acks with data differently.
func capturedDatagrams(tb testing.TB) [][]byte {
	tb.Helper()
	seen := make(map[string]bool)
	var wires [][]byte
	for _, batch := range []int{0, 16} {
		h := newHarness(424242 + int64(batch))
		h.batch = batch
		if batch == 0 {
			h.jitter = 15 * time.Millisecond // apart in time, never a flight
		}
		h.dupEvery = 9
		h.drop = func(_ int, p []byte) bool {
			if !seen[string(p)] {
				seen[string(p)] = true
				wires = append(wires, append([]byte(nil), p...))
			}
			return h.rng.Intn(10) == 0
		}
		twoWayTransfer(tb, h, Config{StreamWindow: 8 << 10, SessionWindow: 16 << 10}, 40<<10, 1_000_000)
	}
	return wires
}

// twoWayTransfer runs size bytes in both directions over one stream
// plus a ping, failing tb on any stream error or corruption.
func twoWayTransfer(tb testing.TB, h *harness, cfg Config, size, budget int) {
	tb.Helper()
	want := payload(size)
	srcA, srcB := &source{data: want}, &source{data: want}
	rcvA, rcvB := &sink{}, &sink{}
	cba := Callbacks{
		Writable: func(s *Stream) { srcA.pump(s) },
		Readable: func(s *Stream) { rcvA.pump(s) },
		Closed: func(s *Stream, err error) {
			if err != nil {
				tb.Fatalf("a-side stream error: %v", err)
			}
			rcvA.done = true
		},
	}
	cbb := Callbacks{
		Accept:   func(s *Stream) { srcB.pump(s) },
		Writable: func(s *Stream) { srcB.pump(s) },
		Readable: func(s *Stream) { rcvB.pump(s) },
		Closed: func(s *Stream, err error) {
			if err != nil {
				tb.Fatalf("b-side stream error: %v", err)
			}
			rcvB.done = true
		},
	}
	h.wire(cfg, cba, cbb)
	if _, err := h.a.Ping(); err != nil {
		tb.Fatal(err)
	}
	s, err := h.a.Open()
	if err != nil {
		tb.Fatal(err)
	}
	srcA.pump(s)
	h.run(tb, func() bool { return rcvA.done && rcvB.done }, budget)
	if !bytes.Equal(rcvA.buf.Bytes(), want) || !bytes.Equal(rcvB.buf.Bytes(), want) {
		tb.Fatalf("transfer corrupted: got %d/%d bytes", rcvA.buf.Len(), rcvB.buf.Len())
	}
}

// FuzzFrameParse asserts the frame parser is total — it never panics
// on arbitrary datagram bytes — and canonical: frames it accepts
// re-encode via AppendFrame into a datagram that parses back to the
// identical frame sequence.
func FuzzFrameParse(f *testing.F) {
	for _, wire := range capturedDatagrams(f) {
		f.Add(wire)
	}
	// Adversarial shapes: empty, short prefix, length past the end,
	// non-stream proto type smuggled inside a valid frame envelope.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0xFF, 0xFF, 0x01})
	f.Add(proto.AppendFrame(nil, &proto.Message{Type: proto.TypeData}, 0))
	// Acks reporting out-of-order ranges: well-formed, then with a
	// 7-byte tail, a reversed pair and more pairs than an ack may carry.
	ranges := ackRangesOf(2000, 3110, 4220, 5330)
	f.Add(AppendFrame(nil, &Frame{Type: proto.TypeStreamAck, Stream: 2, Off: 1110, Data: ranges}))
	f.Add(AppendFrame(nil, &Frame{Type: proto.TypeStreamAck, Stream: 2, Off: 1110, FIN: true, Data: ranges[:15]}))
	f.Add(AppendFrame(nil, &Frame{Type: proto.TypeStreamAck, Stream: 3, Data: ackRangesOf(
		9, 1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pr Parser
		var frames []Frame
		if err := pr.Parse(data, func(fr Frame) error {
			fr.Data = append([]byte(nil), fr.Data...)
			frames = append(frames, fr)
			return nil
		}); err != nil {
			return // rejected datagram: fine, as long as it didn't panic
		}
		var canonical []byte
		for i := range frames {
			canonical = AppendFrame(canonical, &frames[i])
		}
		var again []Frame
		var pr2 Parser
		if err := pr2.Parse(canonical, func(fr Frame) error {
			fr.Data = append([]byte(nil), fr.Data...)
			again = append(again, fr)
			return nil
		}); err != nil {
			t.Fatalf("re-encoding accepted frames failed to parse: %v", err)
		}
		if len(again) != len(frames) {
			t.Fatalf("round trip changed frame count: %d -> %d", len(frames), len(again))
		}
		for i := range frames {
			a, b := &frames[i], &again[i]
			if a.Type != b.Type || a.Stream != b.Stream || a.Off != b.Off ||
				a.FIN != b.FIN || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("round trip drifted at frame %d:\n in: %+v\nout: %+v", i, a, b)
			}
		}
	})
}

// FuzzStreamReassembly asserts the receive path reconstructs the
// exact byte stream under arbitrary segmentation, duplication, and
// delivery order: any schedule that eventually delivers every segment
// must yield the original bytes, in order, exactly once, with EOF.
func FuzzStreamReassembly(f *testing.F) {
	f.Add([]byte("hello, hole-punched world"), int64(1))
	f.Add(payload(4096), int64(7))
	f.Add([]byte{}, int64(3))
	f.Add(payload(300), int64(99))
	// Twenty-odd segments in shuffled order: acks reporting several
	// ranges at once.
	f.Add(payload(12<<10), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 48<<10 {
			return // stay inside the default flow-control windows
		}
		rng := rand.New(rand.NewSource(seed))

		// Cut data into segments, FIN on the last (possibly empty).
		var segs []Frame
		off := 0
		for off < len(data) {
			n := 1 + rng.Intn(1024)
			if off+n > len(data) {
				n = len(data) - off
			}
			segs = append(segs, Frame{
				Type: proto.TypeStream, Stream: 2,
				Off: uint32(off), Data: data[off : off+n],
			})
			off += n
		}
		if len(segs) == 0 || rng.Intn(2) == 0 {
			segs = append(segs, Frame{
				Type: proto.TypeStream, Stream: 2,
				Off: uint32(len(data)), FIN: true,
			})
		} else {
			segs[len(segs)-1].FIN = true
		}

		// Delivery schedule: every segment once, plus duplicates,
		// shuffled.
		sched := append([]Frame(nil), segs...)
		for i := 0; i < len(segs)/3+1; i++ {
			sched = append(sched, segs[rng.Intn(len(segs))])
		}
		rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })

		// Once a datagram per entry, once in runs: a reader that drains
		// inside Readable then flushes in the middle of entries whose
		// own flush comes at their end.
		reassemble(t, data, sched, seed, 0)
		reassemble(t, data, sched, seed, 8)
	})
}

// reassemble delivers sched to a fresh receiver that drains inside
// Readable — a datagram per entry, or with batch > 0 in entries of 1 to
// batch datagrams on a transport with an end of entry (harness.batch) —
// and requires data back, in order, exactly once, with EOF, and every
// ack sent on the way well-formed.
func reassemble(t *testing.T, data []byte, sched []Frame, seed int64, batch int) {
	h := newHarness(seed)
	h.batch = batch
	// Acks go nowhere, but each must describe what the receiver holds:
	// at most maxAckRanges whole ranges, ascending and apart from each
	// other, inside the stream, not below the cumulative offset (a
	// reader draining inside Readable acks mid-merge, when the lowest
	// range starts exactly there).
	h.drop = func(_ int, p []byte) bool {
		var pr Parser
		_ = pr.Parse(p, func(fr Frame) error {
			if fr.Type != proto.TypeStreamAck {
				return nil
			}
			if len(fr.Data)%8 != 0 || len(fr.Data) > 8*maxAckRanges {
				t.Fatalf("ack carries %d range bytes", len(fr.Data))
			}
			at := fr.Off
			for r := fr.Data; len(r) > 0; r = r[8:] {
				start, end := binary.BigEndian.Uint32(r), binary.BigEndian.Uint32(r[4:])
				if start < at || (start == at && at != fr.Off) || end <= start || end > uint32(len(data)) {
					t.Fatalf("ack at %d reports range %d..%d after %d (stream of %d bytes)",
						fr.Off, start, end, at, len(data))
				}
				at = end
			}
			return nil
		})
		return true
	}
	rcv := &sink{}
	h.wire(Config{}, Callbacks{}, Callbacks{
		Readable: func(s *Stream) { rcv.pump(s) },
	})
	for len(sched) > 0 {
		n := 1
		if batch > 0 {
			n = min(1+h.rng.Intn(batch), len(sched))
		}
		for i := range sched[:n] {
			h.b.HandleDatagram(AppendFrame(nil, &sched[i]))
		}
		h.endEntry()
		sched = sched[n:]
	}
	if got := rcv.buf.Bytes(); !bytes.Equal(got, data) {
		t.Fatalf("reassembly drifted: got %d bytes, want %d", len(got), len(data))
	}
	if !rcv.eof {
		t.Fatalf("EOF not observed after full delivery")
	}
	// At rest nothing is owed: whatever ack a flush held, the timer sent.
	h.drain(t, 100)
	for id, s := range h.b.streams {
		if s.ackPending {
			t.Fatalf("stream %d still owes an ack at quiescence", id)
		}
	}
	if h.b.ackTimer != nil || h.tb.live() != 0 {
		t.Fatalf("ack timer %v, %d timers live at quiescence", h.b.ackTimer, h.tb.live())
	}
}
