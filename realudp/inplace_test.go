package realudp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"natpunch/transport"
)

var _ transport.InPlaceSender = (*Conn)(nil)

// fill is n bytes that name their datagram and their offset in it.
func fill(n int, tag byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag + byte(i)
	}
	return p
}

// TestReserveCommitContract is transport.InPlaceSender as realudp
// implements it, over every kind of entry and both read loops: what is
// built in a reserved buffer and committed arrives byte-exact and in
// the order it was sent, interleaved with plain SendTo; so does a
// buffer that is not the reserved one — the caller's own, one the
// appends outgrew, one reserved before something else was sent — and
// none of them damages a datagram queued before or after it. On the
// batched path it all leaves in the entry's one WriteBatch, the arena's
// growing in the middle of it included.
func TestReserveCommitContract(t *testing.T) {
	requireLoopback(t)
	for _, batching := range []bool{true, false} {
		for _, kind := range entryKinds {
			t.Run(fmt.Sprintf("batching=%v/%s", batching, kind.name), func(t *testing.T) {
				tr := newTransport(t, WithBatching(batching))
				sink, sinkEP := loopSink(t)
				conn := bindConn(t, tr)

				var want [][]byte
				var flushes, grown int
				built := func(p []byte) { // p built where it is sent from
					want = append(want, p)
					if err := conn.Commit(sinkEP, append(conn.Reserve(), p...)); err != nil {
						t.Errorf("commit %d: %v", len(want), err)
					}
				}
				kind.run(t, tr, conn, func() {
					flushes, grown = conn.flushes, cap(conn.arena)
					built(fill(100, 0x10))
					want = append(want, fill(40, 0x20))
					conn.SendTo(sinkEP, fill(40, 0x20))
					built(fill(100, 0x30))
					built(nil) // an empty datagram is a datagram

					// The caller's own buffer, with a reservation open.
					own := fill(300, 0x40)
					want = append(want, own)
					conn.Reserve()
					conn.Commit(sinkEP, own)

					// Appends that outgrow the reserved room move to an
					// array of the caller's: the arena has to grow to
					// take the copy, with everything above still queued.
					p := conn.Reserve()
					big := fill(cap(p)+2000, 0x50)
					want = append(want, big)
					conn.Commit(sinkEP, append(p, big...))

					// Something else sent between Reserve and Commit:
					// it goes first, and what the late appends write
					// lands on nothing that is queued.
					late := fill(700, 0x60)
					p = append(conn.Reserve(), late[:300]...)
					want = append(want, fill(200, 0x70), late)
					conn.SendTo(sinkEP, fill(200, 0x70))
					conn.Commit(sinkEP, append(p, late[300:]...))

					built(fill(100, 0x80))
					grown = cap(conn.arena) - grown
					flushes = conn.flushes - flushes
				})

				sink.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 64<<10)
				for i, w := range want {
					n, _, err := sink.ReadFromUDPAddrPort(buf)
					if err != nil || !bytes.Equal(buf[:n], w) {
						t.Fatalf("datagram %d of %d: %d bytes starting %x (%v), want %d starting %x",
							i, len(want), n, buf[:min(n, 4)], err, len(w), w[:min(len(w), 4)])
					}
				}
				if !tr.Batched() {
					return
				}
				if grown <= 0 {
					t.Errorf("the arena did not grow inside the entry: the test no longer covers that")
				}
				if flushes != 0 {
					t.Errorf("%d WriteBatch calls before the entry's engine code returned, want 0: growing must not flush", flushes)
				}
				var queued int
				tr.Invoke(func() { queued = conn.npend })
				if queued != 0 {
					t.Errorf("%d datagrams still queued after the entry", queued)
				}
			})
		}
	}
}

// TestArenaBounds: the send arena starts empty, is sized by what a
// socket actually queues — a control-plane socket's few small datagrams
// cost it well under a KiB — and stops at one segmented send's worth
// however much one entry sends.
func TestArenaBounds(t *testing.T) {
	requireLoopback(t)
	if !batchSupported {
		t.Skip("no batched path on this platform")
	}
	tr := newTransport(t)
	_, sinkEP := loopSink(t)

	small := bindConn(t, tr)
	if small.arena != nil {
		t.Fatalf("a socket that has sent nothing holds %d bytes of arena", cap(small.arena))
	}
	tr.Invoke(func() {
		small.SendTo(sinkEP, make([]byte, 100))
		small.Commit(sinkEP, append(small.Reserve(), make([]byte, 100)...))
		small.SendTo(sinkEP, make([]byte, 100))
	})
	if held := cap(small.arena); held == 0 || held >= 1<<10 {
		t.Errorf("three 100-byte datagrams left the socket holding %d bytes of arena, want some and under 1 KiB", held)
	}

	bulk := bindConn(t, tr)
	payload := make([]byte, 1202)
	for round := 0; round < 3; round++ {
		tr.Invoke(func() {
			for i := 0; i < 200; i++ {
				bulk.Commit(sinkEP, append(bulk.Reserve(), payload...))
			}
		})
	}
	if held := cap(bulk.arena); held > arenaMax {
		t.Errorf("600 datagrams left the socket holding %d bytes of arena, want at most one segmented send's %d", held, arenaMax)
	}
	var copied int
	tr.Invoke(func() {
		copied = bulk.copied
		for i := 0; i < 200; i++ {
			bulk.Commit(sinkEP, append(bulk.Reserve(), payload...))
		}
		copied = bulk.copied - copied
	})
	if copied != 0 {
		t.Errorf("%d of 200 datagrams were copied into a grown arena, want all built in place", copied)
	}
}
