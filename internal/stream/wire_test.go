package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
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
		{"lossless", 18, 4 << 20, func(*harness) {}, "2b6ab890c0dbcb21", 7589},
		{"loss1pct", 18, 4 << 20, onePercent, "367297a46606c8d5", 10658},
		{"paced", 20, 256 << 10, func(h *harness) { h.pace, h.chunk = time.Millisecond, 2<<10 }, "c339b943ddb037fc", 517},
		{"loss25pct", 2, 50 << 10, func(h *harness) {
			h.drop = func(int, []byte) bool { return h.rng.Intn(100) < 25 }
		}, "e540d54bba784dc1", 172},
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
