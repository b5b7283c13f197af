package stream_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"natpunch/stream"
	"natpunch/transport"
)

// TestLoopbackPingPongIsTwoDatagramsPerRoundTrip is the request/response
// count on real sockets: 2000 round trips of 256 bytes each way between
// two reader goroutines cross the loopback as two datagrams each. The
// ack of a request leaves in front of its response and the ack of a
// response in front of the next request; what the receive path's flush
// holds back, the ack timer sends only when the answer is 5 ms late, so
// at most one more datagram per side per ack delay of elapsed time. An
// ack flushed as its frame arrives makes it four per round trip.
func TestLoopbackPingPongIsTwoDatagramsPerRoundTrip(t *testing.T) {
	const size, warmup, rounds = 256, 10, 2000
	const ackDelay = 5 * time.Millisecond // internal/stream's maxAckDelay
	w := loopWorld(t, baseOpts()...)

	// Everything not from the server is the peer's. The counters live in
	// their transport's serialized context.
	var toA, toB int
	w.trA.SetPacketFilter(func(src transport.Endpoint) bool {
		if src != w.server {
			toA++
		}
		return true
	})
	w.trB.SetPacketFilter(func(src transport.Endpoint) bool {
		if src != w.server {
			toB++
		}
		return true
	})
	crossed := func() (n int) {
		w.trA.Invoke(func() { n += toA })
		w.trB.Invoke(func() { n += toB })
		return n
	}

	// A request is the pattern with its round number in front, the
	// response its complement: neither can pass for the other or for a
	// stale round's.
	pad := pattern(size)
	ln, err := w.bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			conn, err := ln.AcceptConn()
			if err != nil {
				return err
			}
			sess, err := stream.NewSession(conn)
			if err != nil {
				return err
			}
			defer sess.Close()
			st, err := sess.AcceptStream()
			if err != nil {
				return err
			}
			st.SetDeadline(time.Now().Add(120 * time.Second))
			req, resp := make([]byte, size), make([]byte, size)
			for round := uint64(1); round <= warmup+rounds; round++ {
				if _, err := io.ReadFull(st, req); err != nil {
					return err
				}
				if binary.LittleEndian.Uint64(req) != round || !bytes.Equal(req[8:], pad[8:]) {
					t.Errorf("request %d arrived as round %d, pattern intact: %v",
						round, binary.LittleEndian.Uint64(req), bytes.Equal(req[8:], pad[8:]))
				}
				for i, b := range req {
					resp[i] = ^b
				}
				if _, err := st.Write(resp); err != nil {
					return err
				}
			}
			// Hold the session open until the client has read the last response.
			_, err = st.Read(req)
			if err == io.EOF {
				err = nil
			}
			return err
		}()
	}()

	conn, err := w.alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if classOf(conn.Path()) != "direct" {
		t.Fatalf("path %s, want direct", conn.Path())
	}
	sess, err := stream.NewSession(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.SetDeadline(time.Now().Add(120 * time.Second))
	req, resp := append([]byte(nil), pad...), make([]byte, size)
	var before int
	var began time.Time
	for round := uint64(1); round <= warmup+rounds; round++ {
		if round == warmup+1 {
			before, began = crossed(), time.Now()
		}
		binary.LittleEndian.PutUint64(req, round)
		if _, err := st.Write(req); err != nil {
			t.Fatalf("write %d: %v", round, err)
		}
		if _, err := io.ReadFull(st, resp); err != nil {
			t.Fatalf("read %d: %v", round, err)
		}
		for i, b := range resp {
			if b != ^req[i] {
				t.Fatalf("response %d differs from its request's complement at byte %d", round, i)
			}
		}
	}
	took := time.Since(began)
	dgrams := crossed() - before
	st.CloseWrite()
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}

	t.Logf("%d round trips in %v: %d datagrams between the peers, %.3f per round trip",
		rounds, took.Round(time.Millisecond), dgrams, float64(dgrams)/rounds)
	// One timer per side per ack delay, and a few for whatever else the
	// session says to its peer in the meantime (keep-alives).
	if limit := 2*rounds + 2*int(took/ackDelay+1) + 8; dgrams < 2*rounds || dgrams > limit {
		t.Errorf("%d datagrams for %d round trips over %v, want between %d and %d: two each, and the ack timer's",
			dgrams, rounds, took, 2*rounds, limit)
	}
}
