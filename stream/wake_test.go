package stream_test

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"natpunch/stream"
)

// loopSessions dials bob from alice over loopback and brings a stream
// session up on both ends; both close when the test ends.
func loopSessions(t *testing.T) (w *world, alice, bob *stream.Session) {
	t.Helper()
	w = loopWorld(t, baseOpts()...)
	alice, bob = sessions(t, w)
	return w, alice, bob
}

// sessions dials bob from alice in w and brings a stream session up on
// both ends; both close when the test ends.
func sessions(t *testing.T, w *world) (alice, bob *stream.Session) {
	t.Helper()
	ln, err := w.bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	type accepted struct {
		sess *stream.Session
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			ch <- accepted{err: err}
			return
		}
		sess, err := stream.NewSession(conn)
		ch <- accepted{sess, err}
	}()
	conn, err := w.alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if alice, err = stream.NewSession(conn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alice.Close() })
	a := <-ch
	if a.err != nil {
		t.Fatalf("accept side: %v", a.err)
	}
	t.Cleanup(func() { a.sess.Close() })
	return alice, a.sess
}

// TestSessionWakeZeroAlloc: an entry raising three events on one stream
// wakes that stream once, the session's other streams zero times, and
// allocates nothing.
func TestSessionWakeZeroAlloc(t *testing.T) {
	w, sess, _ := loopSessions(t)
	var sts [4]*stream.Stream
	for i := range sts {
		var err error
		if sts[i], err = sess.OpenStream(); err != nil {
			t.Fatal(err)
		}
	}
	named := sts[1]
	events := func() {
		named.EngineEvent()
		named.EngineEvent()
		named.EngineEvent()
	}
	entry := func() { w.trA.Invoke(events) }
	entry()
	var before [len(sts)]uint64
	for i, st := range sts {
		before[i] = st.Wakeups()
	}
	if allocs := testing.AllocsPerRun(200, entry); allocs != 0 {
		t.Errorf("an entry raising three events allocates %v/op, want 0", allocs)
	}
	for i, st := range sts {
		want := uint64(0)
		if st == named {
			want = 201
		}
		if n := st.Wakeups() - before[i]; n != want {
			t.Errorf("201 entries of three events each on stream %d woke stream %d %d times, want %d",
				named.ID(), st.ID(), n, want)
		}
	}
}

// TestSessionWakePerEventOnSim: on a transport whose every event is
// its own entry (the simulator has no end of entry), each event wakes
// the stream it names at once, inside the entry that raised it, and
// wakes no other stream.
func TestSessionWakePerEventOnSim(t *testing.T) {
	sess, _ := simSessions(t)
	named, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	other, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	sess.Invoke(func() {
		woke, idle := named.Wakeups(), other.Wakeups()
		for i := 1; i <= 3; i++ {
			named.EngineEvent()
			if n := named.Wakeups() - woke; n != uint64(i) {
				t.Errorf("after %d events in one entry the stream woke %d times, want %d", i, n, i)
				return
			}
		}
		if n := other.Wakeups() - idle; n != 0 {
			t.Errorf("events on stream %d woke stream %d %d times, want 0", named.ID(), other.ID(), n)
		}
	})
}

// TestLoopbackDataWakesOnlyItsReader: four streams each have a reader
// blocked in Read; a byte for one of them wakes that reader and leaves
// the other three asleep, in turn for each stream.
func TestLoopbackDataWakesOnlyItsReader(t *testing.T) {
	const streams = 4
	_, alice, bob := loopSessions(t)
	var out, in [streams]*stream.Stream
	for i := range out {
		var err error
		if out[i], err = alice.OpenStream(); err != nil {
			t.Fatal(err)
		}
		if _, err := out[i].Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	read := make(chan int, streams) // which reader returned with a byte
	for i := range in {
		var err error
		if in[i], err = bob.AcceptStream(); err != nil {
			t.Fatal(err)
		}
		go func(i int, st *stream.Stream) {
			var b [1]byte
			for {
				if _, err := st.Read(b[:]); err != nil {
					return // the session's end
				}
				if int(b[0]) != i {
					t.Errorf("reader %d got a byte for stream %d", i, b[0])
				}
				read <- i
			}
		}(i, in[i])
	}
	next := func() int {
		t.Helper()
		select {
		case got := <-read:
			return got
		case <-time.After(10 * time.Second):
			t.Fatal("a reader never got its byte")
			return -1
		}
	}
	var first [streams]bool
	for range in {
		first[next()] = true
	}
	if first != [streams]bool{true, true, true, true} {
		t.Fatalf("readers that got their first byte: %v", first)
	}
	for i := range out {
		var before [streams]uint64
		for j, st := range in {
			before[j] = st.Wakeups()
		}
		if _, err := out[i].Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if got := next(); got != i {
			t.Fatalf("reader %d returned for a byte on stream %d", got, i)
		}
		// Past the 5 ms ack delay: whatever the byte set off has run.
		time.Sleep(20 * time.Millisecond)
		for j, st := range in {
			n := st.Wakeups() - before[j]
			switch {
			case j == i && n == 0:
				t.Errorf("a byte on stream %d returned its reader without waking it", i)
			case j != i && n != 0:
				t.Errorf("a byte on stream %d woke the reader of stream %d %d times, want 0", i, j, n)
			}
		}
		select {
		case got := <-read:
			t.Fatalf("reader %d returned for a byte on stream %d", got, i)
		default:
		}
	}
}

// TestStreamRoundTripZeroAlloc: a 256-byte request and its response on
// loopback, with a deadline set every round, allocate nothing anywhere
// in the process: not the facade's engine calls, deadline timers or
// wake-ups, not the engine, not the sockets.
func TestStreamRoundTripZeroAlloc(t *testing.T) {
	const size = 256
	_, alice, bob := loopSessions(t)
	st, err := alice.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			st, err := bob.AcceptStream()
			if err != nil {
				return err
			}
			req, resp := make([]byte, size), make([]byte, size)
			for {
				st.SetDeadline(time.Now().Add(60 * time.Second))
				if _, err := io.ReadFull(st, req); err != nil {
					if err == io.EOF {
						return nil
					}
					return err
				}
				for i, b := range req {
					resp[i] = ^b
				}
				if _, err := st.Write(resp); err != nil {
					return err
				}
			}
		}()
	}()

	req, resp := pattern(size), make([]byte, size)
	round := func() {
		st.SetDeadline(time.Now().Add(60 * time.Second))
		if _, err := st.Write(req); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := io.ReadFull(st, resp); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	for i := 0; i < 2000; i++ {
		round() // timers made, scratch and queues at their steady size
	}
	if allocs := testing.AllocsPerRun(2000, round); allocs != 0 {
		t.Errorf("a request/response round trip allocates %v/op in the whole process, want 0", allocs)
	}
	for i, b := range resp {
		if b != ^req[i] {
			t.Fatalf("response differs from its request's complement at byte %d", i)
		}
	}
	st.CloseWrite()
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestStreamConcurrentReadWrite: four goroutines write one stream and
// four read it at once while the peer echoes; every byte each writer
// sent comes back exactly once. Reads serialize and so do Writes, so
// no call's engine arguments or results are another's.
func TestStreamConcurrentReadWrite(t *testing.T) {
	const goroutines, chunks, chunk = 4, 64, 1000
	_, alice, bob := loopSessions(t)
	st, err := alice.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.SetDeadline(time.Now().Add(60 * time.Second))
	echoed := make(chan error, 1)
	go func() {
		echoed <- func() error {
			es, err := bob.AcceptStream()
			if err != nil {
				return err
			}
			es.SetDeadline(time.Now().Add(60 * time.Second))
			if _, err := io.Copy(es, es); err != nil {
				return err
			}
			return es.CloseWrite()
		}()
	}()

	// Writer w sends chunks filled with byte w; a reader counts what it
	// gets per byte value.
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(w)}, chunk)
			for i := 0; i < chunks; i++ {
				if n, err := st.Write(buf); n != chunk || err != nil {
					t.Errorf("writer %d: chunk %d took %d of %d bytes: %v", w, i, n, chunk, err)
					return
				}
			}
		}()
	}
	counts := make([][goroutines]int, goroutines)
	var rg sync.WaitGroup
	for r := range counts {
		rg.Add(1)
		go func() {
			defer rg.Done()
			buf := make([]byte, 700)
			for {
				n, err := st.Read(buf)
				for _, b := range buf[:n] {
					if int(b) >= goroutines {
						t.Errorf("reader %d got byte %d, which no writer sent", r, b)
						return
					}
					counts[r][b]++
				}
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st.CloseWrite()
	rg.Wait()
	if err := <-echoed; err != nil {
		t.Fatalf("echo: %v", err)
	}
	for w := 0; w < goroutines; w++ {
		got := 0
		for r := range counts {
			got += counts[r][w]
		}
		if got != chunks*chunk {
			t.Errorf("writer %d sent %d bytes, %d came back", w, chunks*chunk, got)
		}
	}
}

// TestPingTimeoutLeavesNoToken: a ping that gives up before its pong
// arrives forgets its token, so the late pong finds nothing to fill,
// and a ping that succeeds leaves nothing behind either.
func TestPingTimeoutLeavesNoToken(t *testing.T) {
	_, alice, _ := loopSessions(t)
	if rtt, err := alice.Ping(time.Nanosecond); err == nil {
		t.Fatalf("a 1 ns ping returned a round trip of %v", rtt)
	}
	// Pongs come back in order on the one path: the late one has been
	// handled by the time the next ping's arrives.
	if _, err := alice.Ping(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := alice.PendingPings(); n != 0 {
		t.Errorf("%d ping tokens held after every ping returned, want 0", n)
	}
}
