package realudp

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"natpunch/transport"
)

var _ transport.Deferrer = (*Transport)(nil)

// entryKinds are the three ways into the serialized context. run makes
// body the engine code of one entry of that kind and returns once the
// entry is over (for a delivered batch and a timer callback, once the
// next Invoke got the mutex after body was seen running).
var entryKinds = []struct {
	name string
	run  func(t *testing.T, tr *Transport, conn *Conn, body func())
}{
	{"invoke", func(t *testing.T, tr *Transport, conn *Conn, body func()) {
		tr.Invoke(body)
	}},
	{"timer", func(t *testing.T, tr *Transport, conn *Conn, body func()) {
		ran := make(chan struct{})
		tr.Invoke(func() { tr.After(0, func() { body(); close(ran) }) })
		awaitEntry(t, tr, ran)
	}},
	{"delivery", func(t *testing.T, tr *Transport, conn *Conn, body func()) {
		ran := make(chan struct{})
		tr.Invoke(func() {
			conn.OnRecv(func(transport.Endpoint, []byte) { body(); close(ran) })
		})
		probe, err := net.DialUDP("udp4", nil, ToUDPAddr(conn.Local()))
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		if _, err := probe.Write([]byte("go")); err != nil {
			t.Fatal(err)
		}
		awaitEntry(t, tr, ran)
		tr.Invoke(func() { conn.OnRecv(nil) })
	}},
}

func awaitEntry(t *testing.T, tr *Transport, ran chan struct{}) {
	t.Helper()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("the entry never ran")
	}
	tr.Invoke(func() {}) // the mutex: the entry that closed ran has left
}

// TestDeferContract is transport.Deferrer as realudp implements it, over
// every kind of entry and both read loops: a deferred function runs
// once per registration, in registration order, in the entry that
// registered it — one registered by a deferred function included — and
// while that entry is still a send batch, so what it sends leaves with
// what the engine code sent.
func TestDeferContract(t *testing.T) {
	requireLoopback(t)
	for _, batching := range []bool{true, false} {
		for _, kind := range entryKinds {
			t.Run(fmt.Sprintf("batching=%v/%s", batching, kind.name), func(t *testing.T) {
				tr := newTransport(t, WithBatching(batching))
				sink, sinkEP := loopSink(t)
				conn := bindConn(t, tr)

				var log []string
				var inBatch []bool
				var queuedAtHook, flushesAtHook int
				note := func(what string) {
					log = append(log, what)
					inBatch = append(inBatch, tr.inBatch.Load())
					conn.SendTo(sinkEP, []byte(what))
				}
				second := func() { note("second") }
				nested := func() { note("nested") }
				first := func() {
					queuedAtHook, flushesAtHook = conn.npend, conn.flushes
					note("first")
					tr.Defer(nested)
				}
				var flushes int
				tr.Invoke(func() { flushes = conn.flushes })
				kind.run(t, tr, conn, func() {
					tr.Defer(first)
					tr.Defer(second)
					tr.Defer(second) // two registrations, two runs
					note("body")
				})

				want := []string{"body", "first", "second", "second", "nested"}
				if !slices.Equal(log, want) {
					t.Fatalf("ran %v, want %v", log, want)
				}
				if slices.Contains(inBatch, false) {
					t.Errorf("send batch open at %v: %v, want it open throughout", log, inBatch)
				}
				// The same five datagrams, in that order, on the wire.
				sink.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 16)
				for i, w := range want {
					n, _, err := sink.ReadFromUDPAddrPort(buf)
					if err != nil || string(buf[:n]) != w {
						t.Fatalf("datagram %d is %q (%v), want %q", i, buf[:n], err, w)
					}
				}
				if tr.Batched() {
					if queuedAtHook != 1 || flushesAtHook != flushes {
						t.Errorf("first hook found %d datagrams queued after %d flushes, want the body's one still queued and none",
							queuedAtHook, flushesAtHook-flushes)
					}
					tr.Invoke(func() { flushes = conn.flushes - flushes })
					if flushes != 1 {
						t.Errorf("the entry's five datagrams took %d WriteBatch calls, want 1: the hooks' sends ride the body's", flushes)
					}
				}

				// Nothing is left over for the next entry.
				log = log[:0]
				kind.run(t, tr, conn, func() {})
				if len(log) != 0 {
					t.Errorf("an entry that deferred nothing ran %v", log)
				}
			})
		}
	}
}

// TestDeferAfterClose: on a closed transport nothing deferred runs — not
// in the entry that registered it, not in a later one.
func TestDeferAfterClose(t *testing.T) {
	requireLoopback(t)
	for _, batching := range []bool{true, false} {
		tr := newTransport(t, WithBatching(batching))
		bindConn(t, tr)
		ran := 0
		hook := func() { ran++ }
		tr.Invoke(func() { tr.Defer(hook) })
		tr.Close()
		tr.Invoke(func() { tr.Defer(hook) })
		tr.Invoke(func() {})
		if ran != 1 {
			t.Errorf("batching=%v: hook ran %d times, want only the once before Close", batching, ran)
		}
		if n := len(tr.hooks); n != 0 {
			t.Errorf("batching=%v: %d hooks still held after Close", batching, n)
		}
	}
}

// TestDeferZeroAlloc: registering and running a prebuilt function at the
// end of an entry allocates nothing once the hook list has grown.
func TestDeferZeroAlloc(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	_, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	ack := []byte("ack")
	hook := func() { conn.SendTo(sinkEP, ack) }
	body := func() { tr.Defer(hook) }
	invoke := func() { tr.Invoke(body) }
	invoke()
	if allocs := testing.AllocsPerRun(200, invoke); allocs != 0 {
		t.Errorf("an entry with one deferred send allocates %v/op in steady state, want 0", allocs)
	}
}

// TestNowOnePerEntry: inside an entry the clock stands still at the
// reading taken when the entry began; the next entry reads it again.
func TestNowOnePerEntry(t *testing.T) {
	requireLoopback(t)
	for _, kind := range entryKinds {
		t.Run(kind.name, func(t *testing.T) {
			tr := newTransport(t)
			conn := bindConn(t, tr)
			before := tr.Now()
			var begin, end, hook time.Duration
			atEnd := func() { hook = tr.Now() }
			kind.run(t, tr, conn, func() {
				tr.Defer(atEnd)
				begin = tr.Now()
				time.Sleep(2 * time.Millisecond)
				end = tr.Now()
			})
			after := tr.Now()
			if begin != end || hook != begin {
				t.Errorf("clock moved inside the entry: %v, %v after 2ms, %v in the deferred function", begin, end, hook)
			}
			if begin < before {
				t.Errorf("entry read %v after an outside caller read %v", begin, before)
			}
			if after-begin < 2*time.Millisecond {
				t.Errorf("outside reading %v is less than 2ms after the entry's %v", after, begin)
			}
		})
	}
}

// TestNowConcurrentMonotonic: Now is an exported method, so a goroutine
// outside the serialized context may call it against live traffic. No
// observer — the outside one, or engine code across entries — ever sees
// the clock go backwards, and the race detector has nothing to say.
func TestNowConcurrentMonotonic(t *testing.T) {
	requireLoopback(t)
	for _, batching := range []bool{true, false} {
		t.Run(fmt.Sprintf("batching=%v", batching), func(t *testing.T) {
			ta, a, b := echoPair(t, WithBatching(batching))
			var engineLast time.Duration
			echoes := make(chan struct{}, 1)
			ta.Invoke(func() {
				a.OnRecv(func(transport.Endpoint, []byte) {
					if now := ta.Now(); now < engineLast {
						t.Errorf("engine saw %v after %v", now, engineLast)
					} else {
						engineLast = now
					}
					select {
					case echoes <- struct{}{}:
					default:
					}
				})
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var last time.Duration
					for {
						select {
						case <-stop:
							return
						default:
						}
						now := ta.Now()
						if now < last {
							t.Errorf("outside caller saw %v after %v", now, last)
							return
						}
						last = now
					}
				}()
			}
			payload := make([]byte, 64)
			for i := 0; i < 2000; i++ {
				ta.Invoke(func() {
					if now := ta.Now(); now < engineLast {
						t.Errorf("engine saw %v after %v", now, engineLast)
					} else {
						engineLast = now
					}
					a.SendTo(b.Local(), payload)
				})
				if i%16 == 15 {
					select {
					case <-echoes:
					case <-time.After(5 * time.Second):
						t.Fatal("no echo: traffic stopped")
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
