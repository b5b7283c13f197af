package realudp

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"natpunch/transport"
)

// The timer heap: one per Transport, in the serialized context, driven
// by one runtime timer.

// awaitTimers waits until done reports true when read inside an entry,
// failing the test after five seconds.
func awaitTimers(t *testing.T, tr *Transport, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var ok bool
		tr.Invoke(func() { ok = done() })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timers did not fire within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimerOrder: timers fire in deadline order, whatever order they
// were armed in, and timers with one deadline fire in arming order.
func TestTimerOrder(t *testing.T) {
	tr := newTransport(t)
	var got []string
	arm := func(name string, d time.Duration) {
		tr.After(d, func() { got = append(got, name) })
	}
	tr.Invoke(func() {
		arm("30ms", 30*time.Millisecond)
		arm("10ms-a", 10*time.Millisecond)
		arm("20ms", 20*time.Millisecond)
		arm("10ms-b", 10*time.Millisecond)
		arm("0-a", 0)
		arm("10ms-c", 10*time.Millisecond)
		arm("0-b", 0)
	})
	want := []string{"0-a", "0-b", "10ms-a", "10ms-b", "10ms-c", "20ms", "30ms"}
	awaitTimers(t, tr, func() bool { return len(got) == len(want) })
	if !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

// TestTimerStop: Stop takes a timer off the heap wherever it lies — the
// head, the middle — and reports true once; a timer that fired or was
// stopped reports false to Stop and Active.
func TestTimerStop(t *testing.T) {
	tr := newTransport(t)
	var got []int
	var tms []transport.Timer
	tr.Invoke(func() {
		for i := 1; i <= 5; i++ {
			tms = append(tms, tr.After(time.Duration(i)*10*time.Millisecond, func() { got = append(got, i) }))
		}
	})
	tr.Invoke(func() {
		for i, tm := range tms {
			if !tm.Active() {
				t.Errorf("timer %d inactive before it fired", i+1)
			}
		}
		for _, i := range []int{0, 2} { // the head, then a middle entry
			if !tms[i].Stop() {
				t.Errorf("Stop on pending timer %d reported false", i+1)
			}
			if tms[i].Active() {
				t.Errorf("timer %d active after Stop", i+1)
			}
			if tms[i].Stop() {
				t.Errorf("second Stop on timer %d reported true", i+1)
			}
		}
	})
	awaitTimers(t, tr, func() bool { return len(got) == 3 })
	tr.Invoke(func() {
		if want := []int{2, 4, 5}; !slices.Equal(got, want) {
			t.Errorf("fired %v, want %v", got, want)
		}
		for _, i := range []int{1, 3, 4} {
			if tms[i].Active() {
				t.Errorf("timer %d active after it fired", i+1)
			}
			if tms[i].Stop() {
				t.Errorf("Stop on fired timer %d reported true", i+1)
			}
		}
		if n := tr.timers.Pending(); n != 0 {
			t.Errorf("%d timers left on the heap", n)
		}
	})
}

// TestTimerNeverEarly: no callback runs before its deadline by Now,
// including after the head it was armed behind is stopped, which leaves
// the runtime timer to wake early and find nothing due.
func TestTimerNeverEarly(t *testing.T) {
	tr := newTransport(t)
	fired := 0
	tr.Invoke(func() {
		armed := tr.Now()
		var heads []transport.Timer
		for i := 0; i < 20; i++ {
			d := time.Duration(i%7) * 3 * time.Millisecond
			tm := tr.After(d, func() {
				fired++
				if now := tr.Now(); now < armed+d {
					t.Errorf("timer armed at %v for %v ran at %v", armed, d, now)
				}
			})
			if i%7 == 0 {
				heads = append(heads, tm)
			}
		}
		heads[0].Stop()
	})
	awaitTimers(t, tr, func() bool { return fired == 19 })
}

// TestTimerRearmOncePerFiring: a callback that re-arms itself at d=0 is
// due at once, but runs once per firing, and other entries get the
// serialized context between firings.
func TestTimerRearmOncePerFiring(t *testing.T) {
	tr := newTransport(t)
	const rounds = 50
	runs := 0
	nop := func() {}
	var again func()
	again = func() {
		if len(tr.hooks) != 0 {
			t.Error("callback ran twice in one entry")
		}
		tr.Defer(nop) // cleared when the entry ends
		runs++
		if runs < rounds {
			tr.After(0, again)
		}
	}
	tr.Invoke(func() { tr.After(0, again) })
	awaitTimers(t, tr, func() bool { return runs == rounds })
}

// TestTimerDueTogetherOneFlush: two timers that fall due together run
// in one entry, and what they send leaves in one flush.
func TestTimerDueTogetherOneFlush(t *testing.T) {
	requireLoopback(t)
	tr := newTransport(t)
	sink, sinkEP := loopSink(t)
	conn := bindConn(t, tr)
	var flushes, ran int
	send := func() { conn.SendTo(sinkEP, []byte("due")); ran++ }
	tr.Invoke(func() {
		flushes = conn.flushes
		tr.After(5*time.Millisecond, send)
		tr.After(5*time.Millisecond, send)
	})
	awaitTimers(t, tr, func() bool { return ran == 2 })
	tr.Invoke(func() { flushes = conn.flushes - flushes })
	if flushes != 1 {
		t.Errorf("two timers due together took %d WriteBatch calls, want 1", flushes)
	}
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	for i := 0; i < 2; i++ {
		if n, _, err := sink.ReadFromUDPAddrPort(buf); err != nil || string(buf[:n]) != "due" {
			t.Fatalf("datagram %d is %q (%v)", i, buf[:n], err)
		}
	}
}

// TestTimerConcurrentEntries: goroutines arming and stopping timers
// through Invoke while earlier timers fire — the heap under the mutex,
// the runtime timer moved by one goroutine as it fires on another —
// lose no timer and run no stopped one. Run under -race.
func TestTimerConcurrentEntries(t *testing.T) {
	tr := newTransport(t)
	const goroutines, perG = 4, 50
	fired, want := 0, 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Invoke(func() {
					d := time.Duration((g*perG+i)%5) * time.Millisecond
					if i%3 == 0 {
						tr.After(d, func() { t.Error("a stopped timer ran") }).Stop()
						return
					}
					tr.After(d, func() { fired++ })
					want++
				})
			}
		}()
	}
	wg.Wait()
	awaitTimers(t, tr, func() bool { return fired == want && tr.timers.Pending() == 0 })
}

// TestTimerAfterClose: After on a closed transport returns a timer that
// is not pending and never runs.
func TestTimerAfterClose(t *testing.T) {
	tr := newTransport(t)
	tr.Close()
	ran := false
	var tm transport.Timer
	tr.Invoke(func() { tm = tr.After(0, func() { ran = true }) })
	if tm.Active() || tm.Stop() {
		t.Error("timer armed on a closed transport is pending")
	}
	time.Sleep(10 * time.Millisecond)
	tr.Invoke(func() {
		if ran {
			t.Error("timer armed on a closed transport ran")
		}
	})
}

// TestTimerCloseReleasesCallbacks: Close drops every pending timer's
// callback, so what only a pending timer holds can be collected while
// the transport and the timer's handle are still reachable.
func TestTimerCloseReleasesCallbacks(t *testing.T) {
	tr := newTransport(t)
	type state struct{ buf [64]byte }
	var tm transport.Timer
	var wp weak.Pointer[state]
	tr.Invoke(func() {
		s := &state{}
		wp = weak.Make(s)
		tm = tr.After(time.Hour, func() { s.buf[0]++ })
	})
	tr.Close()
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Error("a closed transport's pending timer still holds its callback")
	}
	if tm.Active() {
		t.Error("timer still pending after Close")
	}
	runtime.KeepAlive(tr)
}

// TestTimerAllocs: arming and stopping a timer inside an entry costs
// one allocation, the handle.
func TestTimerAllocs(t *testing.T) {
	tr := newTransport(t)
	nop := func() {}
	var allocs float64
	tr.Invoke(func() {
		allocs = testing.AllocsPerRun(1000, func() { tr.After(time.Hour, nop).Stop() })
	})
	if allocs != 1 {
		t.Errorf("After+Stop allocates %v/op, want 1 (the handle)", allocs)
	}
}
