package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"natpunch/internal/proto"
)

// traceDigest runs a one-way transfer and digests every datagram both
// sides put on the wire: when, which way, how long, and each frame's
// type, stream, offset, FIN bit and payload length.
func traceDigest(t *testing.T, h *harness, size int) (digest string, dgrams int) {
	t.Helper()
	sum := sha256.New()
	var rec [32]byte
	h.tap = func(from int, p []byte) {
		dgrams++
		binary.BigEndian.PutUint64(rec[0:], uint64(h.clk))
		rec[8] = byte(from)
		binary.BigEndian.PutUint32(rec[9:], uint32(len(p)))
		sum.Write(rec[:13])
		var pr Parser
		_ = pr.Parse(p, func(f Frame) error {
			rec[0] = byte(f.Type)
			binary.BigEndian.PutUint64(rec[1:], f.Stream)
			binary.BigEndian.PutUint32(rec[9:], f.Off)
			rec[13] = 0
			if f.FIN {
				rec[13] = 1
			}
			binary.BigEndian.PutUint32(rec[14:], uint32(len(f.Data)))
			sum.Write(rec[:18])
			return nil
		})
	}
	oneWayTransfer(t, h, Config{}, size, 4000000)
	return hex.EncodeToString(sum.Sum(nil)[:8]), dgrams
}

// TestWireTraceGolden pins what the engine puts on the wire, datagram
// for datagram in virtual time, for the transfers the perf ledger's
// engine.* counts are taken from. A change that is not meant to move
// the wire (buffering, batching, timer handling) must leave all of
// these alone; one that is meant to (ack thinning, pacing) refreshes
// them from the failure message and says so.
//
// Refreshed once since they were first taken, for the ack policy (an ack
// nobody is waiting for rides the next datagram that leaves anyway, every
// second full segment draws one, a short timer sends the rest) and for a
// completing stream's final ack, which used to be lost with the stream:
// lossless 7589 -> 5714 datagrams, loss1pct 10658 -> 8778, paced 517 ->
// 347, loss25pct 172 -> 151.
func TestWireTraceGolden(t *testing.T) {
	onePercent := func(h *harness) {
		seen := make(map[uint32]bool)
		h.drop = func(from int, p []byte) bool {
			off, ok := dataTo(from, p)
			if !ok || seen[off] {
				return false
			}
			seen[off] = true
			return len(seen)%100 == 37
		}
	}
	for _, tc := range []struct {
		name   string
		seed   int64
		size   int
		setup  func(h *harness)
		digest string
		dgrams int
	}{
		{"lossless", 18, 4 << 20, func(*harness) {}, "ba42b0e81c453448", 5714},
		{"loss1pct", 18, 4 << 20, onePercent, "37a5227d7f5ac5b1", 8778},
		{"paced", 20, 256 << 10, func(h *harness) { h.pace, h.chunk = time.Millisecond, 2<<10 }, "3b1baa97c28240e7", 347},
		{"loss25pct", 2, 50 << 10, func(h *harness) {
			h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 25 }
		}, "af7bb936b9fd3889", 151},
	} {
		h := newHarness(tc.seed)
		tc.setup(h)
		digest, dgrams := traceDigest(t, h, tc.size)
		if digest != tc.digest || dgrams != tc.dgrams {
			t.Errorf("%s: wire trace %q over %d datagrams, want %q over %d",
				tc.name, digest, dgrams, tc.digest, tc.dgrams)
		}
	}
}

// TestFrameOverheadMatchesEncoding: transmit decides which datagram a
// frame goes into from frameOverhead + len(Data), before encoding it.
// That is the wire TestWireTraceGolden pins only as long as it is the
// encoded length exactly, for every frame type — an ack's Data being
// its out-of-order ranges, none, one or all eight — and a frame that
// fills a datagram to the byte still goes into it.
func TestFrameOverheadMatchesEncoding(t *testing.T) {
	ranges := func(n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = binary.BigEndian.AppendUint32(b, uint32(4096+2000*i))
			b = binary.BigEndian.AppendUint32(b, uint32(5096+2000*i))
		}
		return b
	}
	frames := []Frame{
		{Type: proto.TypeStream, Stream: 1 << 40, Off: 1 << 31, Data: make([]byte, 1152-frameOverhead)},
		{Type: proto.TypeStream, Stream: 2, Off: 7, FIN: true, Data: []byte("tail")},
		{Type: proto.TypeStream, Stream: 2, Off: 11, FIN: true}, // bare FIN, window probe
		{Type: proto.TypeStreamAck, Stream: 3, Off: 4096, Data: ranges(0)},
		{Type: proto.TypeStreamAck, Stream: 3, Off: 4096, Data: ranges(1)},
		{Type: proto.TypeStreamAck, Stream: 3, Off: 4096, FIN: true, Data: ranges(maxAckRanges)},
		{Type: proto.TypeStreamWindow, Stream: 3, Off: 1 << 20},
		{Type: proto.TypeStreamWindow, Off: 1 << 24}, // session scope
		{Type: proto.TypeStreamReset, Stream: 5, Off: 123456},
		{Type: proto.TypeStreamPing, Off: 0xDEAD},
		{Type: proto.TypeStreamPing, Off: 0xDEAD, FIN: true},
	}
	for _, f := range frames {
		for _, prefix := range [][]byte{nil, []byte("an envelope and a frame before it")} {
			if got := len(AppendFrame(prefix, &f)) - len(prefix); got != frameOverhead+len(f.Data) {
				t.Errorf("%v frame with %d bytes of Data encodes to %d bytes, frameOverhead says %d",
					f.Type, len(f.Data), got, frameOverhead+len(f.Data))
			}
		}
	}

	// The boundary, through transmit: two frames that make MaxDatagram
	// exactly share a datagram, one byte more and the second opens the
	// next. begin hands out a buffer with an envelope already in it,
	// which counts for nothing.
	const envelope = 43
	var sent []int
	var buf []byte
	m := NewMuxInPlace(newHarness(1).ta,
		func() []byte { return append(buf[:0], make([]byte, envelope)...) },
		func(p []byte) error { sent, buf = append(sent, len(p)-envelope), p; return nil },
		true, Config{}, Callbacks{})
	ack := Frame{Type: proto.TypeStreamAck, Stream: 1, Off: 1, Data: ranges(2)}
	room := m.cfg.MaxDatagram - (frameOverhead + len(ack.Data)) - frameOverhead
	m.transmit([]Frame{ack, {Type: proto.TypeStream, Stream: 1, Data: make([]byte, room)}})
	m.transmit([]Frame{ack, {Type: proto.TypeStream, Stream: 1, Data: make([]byte, room+1)}})
	if want := []int{m.cfg.MaxDatagram, frameOverhead + len(ack.Data), frameOverhead + room + 1}; !slices.Equal(sent, want) {
		t.Errorf("datagrams of %v bytes, want %v: a full one, then the frame that no longer fits on its own", sent, want)
	}
}
