package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"weak"

	"natpunch/internal/inet"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run() executed %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v", s.Now())
	}
}

func TestSchedulerFIFOTies(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerRandomizedOrdering(t *testing.T) {
	// Property: regardless of insertion order, execution is sorted by
	// (time, insertion sequence).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := NewScheduler(1)
		type stamp struct {
			at  time.Duration
			seq int
		}
		var fired []stamp
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(20)) * time.Millisecond
			i := i
			s.At(at, func() { fired = append(fired, stamp{at, i}) })
		}
		s.Run()
		if len(fired) != n {
			t.Fatalf("fired %d of %d", len(fired), n)
		}
		sorted := sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].seq < fired[b].seq
		})
		if !sorted {
			t.Fatalf("events out of order: %v", fired)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Active() {
		t.Error("timer should be active")
	}
	if !tm.Stop() {
		t.Error("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	if tm.Active() {
		t.Error("stopped timer should be inactive")
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	var nilTimer *Timer
	if nilTimer.Stop() || nilTimer.Active() {
		t.Error("nil timer should be inert")
	}
}

func TestTimerStopMiddleOfHeap(t *testing.T) {
	s := NewScheduler(1)
	var fired []int
	var timers []*Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, s.After(time.Duration(i)*time.Millisecond, func() { fired = append(fired, i) }))
	}
	// Cancel the odd ones, including heap-internal nodes.
	for i := 1; i < 20; i += 2 {
		timers[i].Stop()
	}
	s.Run()
	if len(fired) != 10 {
		t.Fatalf("fired = %v", fired)
	}
	for _, v := range fired {
		if v%2 != 0 {
			t.Fatalf("cancelled timer %d fired", v)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	s.After(10*time.Millisecond, func() { fired++ })
	s.After(50*time.Millisecond, func() { fired++ })
	s.RunUntil(20 * time.Millisecond)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("Now() = %v, want 20ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d", s.Pending())
	}
	s.RunFor(40 * time.Millisecond)
	if fired != 2 || s.Now() != 60*time.Millisecond {
		t.Errorf("fired=%d now=%v", fired, s.Now())
	}
}

func TestRunWhile(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(time.Millisecond, tick)
	if !s.RunWhile(func() bool { return count < 10 }) {
		t.Error("RunWhile should reach goal")
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	// Goal never reached: queue drains.
	if s.RunWhile(func() bool { return count < 1000 }) {
		t.Error("RunWhile should report queue drained")
	}
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled from within events at the same instant run in
	// the same Run, after already-queued same-instant events.
	s := NewScheduler(1)
	var got []string
	s.After(0, func() {
		got = append(got, "a")
		s.After(0, func() { got = append(got, "c") })
	})
	s.After(0, func() { got = append(got, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNegativeAndPastTimes(t *testing.T) {
	s := NewScheduler(1)
	s.After(10*time.Millisecond, func() {})
	s.Run()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.At(0, func() {}) // in the past; clamped to now
	s.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("clock went backwards: %v", s.Now())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewScheduler(7), NewScheduler(7)
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed should give same sequence")
		}
	}
}

// TestRandIsSeedSource: the source Rand builds on first use draws what
// math/rand's source for the seed draws, whatever ran before it, so
// every seeded run keeps its sequence.
func TestRandIsSeedSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 7} {
		s := NewScheduler(seed)
		s.After(time.Millisecond, func() {})
		s.Run()
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			if got, w := s.Rand().Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d draw %d = %d, want %d", seed, i, got, w)
			}
		}
	}
}

// TestZeroScheduler: a zero Scheduler schedules, runs and draws (seed 0)
// without NewScheduler.
func TestZeroScheduler(t *testing.T) {
	var s Scheduler
	var got []int
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.After(time.Millisecond, func() { got = append(got, 1) })
	if n := s.Run(); n != 2 || !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("Run() = %d, fired %v", n, got)
	}
	if s.Now() != 2*time.Millisecond {
		t.Errorf("Now() = %v, want 2ms", s.Now())
	}
	if got, want := s.Rand().Int63(), NewScheduler(0).Rand().Int63(); got != want {
		t.Errorf("zero Scheduler draws %d, NewScheduler(0) %d", got, want)
	}
}

func TestNextAt(t *testing.T) {
	s := NewScheduler(1)
	if at, ok := s.NextAt(); ok {
		t.Errorf("NextAt() on an empty queue = %v, true", at)
	}
	s.At(30*time.Millisecond, func() {})
	head := s.At(10*time.Millisecond, func() {})
	if at, ok := s.NextAt(); !ok || at != 10*time.Millisecond {
		t.Errorf("NextAt() = %v, %v; want 10ms, true", at, ok)
	}
	head.Stop()
	if at, ok := s.NextAt(); !ok || at != 30*time.Millisecond {
		t.Errorf("NextAt() after stopping the head = %v, %v; want 30ms, true", at, ok)
	}
	s.Run()
	if _, ok := s.NextAt(); ok {
		t.Error("NextAt() reports an event after Run drained the queue")
	}
}

// TestRunDue: RunDue runs what is due by t in (at, seq) order with the
// clock at t, leaves what a callback schedules for the next call (even
// at d=0, and without stranding older events due by t), and never
// moves the clock back.
func TestRunDue(t *testing.T) {
	s := NewScheduler(1)
	var got []string
	add := func(name string, at time.Duration) {
		s.At(at, func() { got = append(got, name) })
	}
	add("40", 40*time.Millisecond)
	add("20-a", 20*time.Millisecond)
	s.At(10*time.Millisecond, func() {
		got = append(got, "10")
		if s.Now() != 25*time.Millisecond {
			t.Errorf("callback saw Now() = %v, want 25ms", s.Now())
		}
		s.After(0, func() { got = append(got, "armed-0") })
	})
	add("20-b", 20*time.Millisecond)
	add("25", 25*time.Millisecond)

	s.RunDue(25 * time.Millisecond)
	if want := []string{"10", "20-a", "20-b", "25"}; !slices.Equal(got, want) {
		t.Errorf("first RunDue ran %v, want %v", got, want)
	}
	if s.Now() != 25*time.Millisecond || s.Pending() != 2 {
		t.Errorf("after first RunDue: Now() = %v, Pending() = %d; want 25ms, 2", s.Now(), s.Pending())
	}
	got = nil
	s.RunDue(25 * time.Millisecond)
	if want := []string{"armed-0"}; !slices.Equal(got, want) {
		t.Errorf("second RunDue ran %v, want %v", got, want)
	}
	s.RunDue(5 * time.Millisecond)
	if s.Now() != 25*time.Millisecond {
		t.Errorf("RunDue(5ms) moved the clock back to %v", s.Now())
	}

	// A callback that re-arms itself at d=0 runs once per call.
	runs := 0
	var again func()
	again = func() {
		if runs++; runs < 5 {
			s.After(0, again)
		}
	}
	s.After(0, again)
	for call := 1; call <= 5; call++ {
		s.RunDue(s.Now())
		if runs != call {
			t.Fatalf("after RunDue call %d the callback ran %d times", call, runs)
		}
	}
	if at, ok := s.NextAt(); !ok || at != 40*time.Millisecond {
		t.Errorf("NextAt() = %v, %v; want 40ms, true", at, ok)
	}
}

// TestDrop: Drop empties the queue, its timers report inactive and
// never run, and it lets go of their callbacks while the scheduler and
// the timers' handles are still reachable.
func TestDrop(t *testing.T) {
	s := NewScheduler(1)
	type state struct{ buf [64]byte }
	var wp weak.Pointer[state]
	var tms []*Timer
	func() {
		st := &state{}
		wp = weak.Make(st)
		for i := 1; i <= 3; i++ {
			tms = append(tms, s.After(time.Duration(i)*time.Hour, func() { st.buf[0]++ }))
		}
	}()
	s.Drop()
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Drop", s.Pending())
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Error("a dropped timer still holds its callback")
	}
	for i, tm := range tms {
		if tm.Active() || tm.Stop() {
			t.Errorf("timer %d is pending after Drop", i)
		}
	}
	if n := s.Run(); n != 0 {
		t.Errorf("Run() after Drop executed %d events", n)
	}
	runtime.KeepAlive(s)
}

type sinkDev struct{ got int }

func (d *sinkDev) Name() string                 { return "sink" }
func (d *sinkDev) Receive(*Iface, *inet.Packet) { d.got++ }

// TestSchedulerAllocs pins what the shared queue allocates: a timer
// armed and stopped costs its handle, and a packet delivery costs
// nothing once the free list is warm. The simulated dial's allocation
// count and realudp's one-allocation timer both rest on it.
func TestSchedulerAllocs(t *testing.T) {
	s := NewScheduler(1)
	nop := func() {}
	if a := testing.AllocsPerRun(1000, func() { s.After(time.Hour, nop).Stop() }); a != 1 {
		t.Errorf("At+Stop allocates %v/op, want 1 (the handle)", a)
	}

	n := NewNetwork(1)
	dev := &sinkDev{}
	ifc := n.NewSegment("lan", "10.0.0.0/24", time.Millisecond).Attach(dev, inet.MustParseAddr("10.0.0.1"))
	pkt := udpPkt(inet.EP("10.0.0.2", 1), inet.EP("10.0.0.1", 2), "x")
	a := testing.AllocsPerRun(1000, func() {
		n.Sched.scheduleDelivery(time.Millisecond, ifc, pkt)
		n.Sched.Step()
	})
	if a != 0 {
		t.Errorf("a packet delivery allocates %v/op, want 0", a)
	}
	if dev.got != 1001 {
		t.Errorf("device received %d packets, want 1001", dev.got)
	}
}

// TestSchedulerColdAtAllocs: on a scheduler with no recycled slots, as
// a fresh realudp.Transport's is, each At costs one allocation too: the
// slot comes with its handle. The queue is sized up front so only At's
// own allocations count.
func TestSchedulerColdAtAllocs(t *testing.T) {
	const runs, timers = 100, 10
	fresh := make([]*Scheduler, runs+1) // AllocsPerRun warms up with one more call
	for i := range fresh {
		fresh[i] = &Scheduler{queue: make(eventHeap, 0, timers)}
	}
	nop := func() {}
	next := 0
	var held [timers]*Timer // the handles escape, as a caller's do
	a := testing.AllocsPerRun(runs, func() {
		s := fresh[next]
		next++
		for i := range held {
			held[i] = s.At(time.Duration(i)*time.Millisecond, nop)
		}
	})
	if a != timers {
		t.Errorf("%d At calls on a fresh scheduler allocate %v objects, want %d", timers, a, timers)
	}
	s := fresh[0]
	if s.Run() != timers || len(s.queue) != 0 {
		t.Errorf("the timers did not all run")
	}
}
