// Package sim provides the deterministic discrete-event simulation
// substrate on which the NAT traversal experiments run: a virtual
// clock with cancellable timers, and a network fabric of segments
// (broadcast domains with CIDR subnets), interfaces, and devices.
//
// All simulated work runs single-threaded inside event callbacks, so
// every run with the same seed is bit-for-bit reproducible. That
// determinism is what lets the test suite assert on packet-level
// orderings (SYN races, idle timeouts) that in the paper's real-world
// setting were matters of luck (§4.4's "lucky" simultaneous open).
//
// The Scheduler's queue is also realudp's timer queue: there it runs on
// the wall clock, one RunDue pass per runtime-timer firing, instead of
// on virtual time.
package sim

import (
	"math/rand"
	"time"

	"natpunch/internal/inet"
)

// event is a scheduled callback. seq breaks ties so that events
// scheduled for the same instant run in scheduling order (FIFO).
// Events are pooled on the scheduler's free list: gen increments on
// every recycle so stale Timer handles cannot cancel a reused slot.
//
// Packet deliveries — by far the most common event in a run — are
// carried inline in target/pkt instead of a heap-allocated closure;
// fn is nil for those events.
type event struct {
	at    time.Duration
	seq   uint64
	gen   uint32
	fn    func()
	index int    // heap index; -1 once popped or cancelled
	next  *event // next on the free list

	// Inline packet delivery, used when fn == nil.
	target *Iface
	pkt    *inet.Packet
}

// eventHeap is a binary min-heap of pending events by (at, seq). Each
// event keeps its index, so Timer.Stop removes it where it lies.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

func (h *eventHeap) push(e *event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

// remove takes the event at i off the heap and returns it.
func (h *eventHeap) remove(i int) *event {
	e, n := (*h)[i], len(*h)-1
	if i != n {
		h.swap(i, n)
	}
	(*h)[n] = nil
	*h = (*h)[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	e.index = -1
	return e
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts the event at i0 toward the leaves and reports whether it
// moved.
func (h eventHeap) down(i0 int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// Scheduler is the discrete-event loop: a clock and a pending event
// queue. The zero value is ready to use, with seed 0 and the clock at
// 0. The simulator drives it on virtual time (Run, RunUntil, Step);
// realudp drives it on the wall clock (RunDue, NextAt).
type Scheduler struct {
	now   time.Duration
	queue eventHeap
	seq   uint64
	seed  int64
	rng   *rand.Rand // built from seed by the first Rand
	free  *event     // recycled events, linked by next (see event.gen)
	// Processed counts events executed, for budget checks in tests.
	Processed uint64
}

// NewScheduler returns a scheduler with virtual time 0 and a
// deterministic random source derived from seed.
func NewScheduler(seed int64) *Scheduler { return &Scheduler{seed: seed} }

// Now returns the current virtual time (elapsed since simulation
// start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source. All
// randomized behavior (loss, port randomization) must draw from it so
// runs stay reproducible. The source is built on first use, so a
// scheduler that never draws never pays for it.
func (s *Scheduler) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// Timer is a handle to a scheduled event, allowing cancellation. The
// generation snapshot guards against the underlying pooled event slot
// being recycled for a later, unrelated event.
type Timer struct {
	s   *Scheduler
	e   *event
	gen uint32
}

// Stop cancels the timer. It reports whether the timer was still
// pending (false if it already fired or was stopped).
func (t *Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.s.release(t.s.queue.remove(t.e.index))
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	return t != nil && t.e != nil && t.e.gen == t.gen && t.e.index >= 0
}

// schedule queues a blank event at time t, or now if t is in the past,
// reusing a recycled slot when one is available.
func (s *Scheduler) schedule(t time.Duration) *event {
	if t < s.now {
		t = s.now
	}
	e := s.free
	if e != nil {
		s.free, e.next = e.next, nil
	} else {
		e = &event{}
	}
	e.at, e.seq = t, s.seq
	s.seq++
	s.queue.push(e)
	return e
}

// release recycles a fired or cancelled event. Bumping gen
// invalidates any outstanding Timer handles to the slot.
func (s *Scheduler) release(e *event) {
	e.gen++
	e.fn, e.target, e.pkt = nil, nil, nil
	e.next, s.free = s.free, e
}

// After schedules fn to run d from now. Negative d is treated as 0
// (fn runs at the current instant, after already-queued events at
// that instant).
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// timerEvent is an event slot allocated together with the handle of
// its first timer.
type timerEvent struct {
	t Timer
	e event
}

// At schedules fn to run at absolute virtual time t. Times in the
// past are clamped to now. It costs one allocation: the handle, or,
// with no recycled slot, a fresh slot and its handle together.
func (s *Scheduler) At(t time.Duration, fn func()) *Timer {
	var tm *Timer
	if s.free == nil {
		te := new(timerEvent)
		s.free, tm = &te.e, &te.t
	} else {
		tm = new(Timer)
	}
	e := s.schedule(t)
	e.fn = fn
	*tm = Timer{s: s, e: e, gen: e.gen}
	return tm
}

// scheduleDelivery enqueues a packet arrival at target after d,
// without allocating a closure or a Timer handle — the fabric's
// per-packet fast path.
func (s *Scheduler) scheduleDelivery(d time.Duration, target *Iface, pkt *inet.Packet) {
	e := s.schedule(s.now + d)
	e.target, e.pkt = target, pkt
}

// Step executes the earliest pending event, reporting false when the
// queue is empty. External drivers (the simnet world's waiter-driven
// loop) use it to advance virtual time one event at a time while
// interleaving with application goroutines.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	s.now = s.queue[0].at
	s.runHead()
	return true
}

// runHead takes the earliest event off the queue and runs it, leaving
// the clock where it is. The slot is recycled before the callback runs,
// so anything the callback schedules can reuse it at once.
func (s *Scheduler) runHead() {
	e := s.queue.remove(0)
	fn, target, pkt := e.fn, e.target, e.pkt
	s.release(e)
	switch {
	case fn != nil:
		s.Processed++
		fn()
	case target != nil:
		s.Processed++
		target.deliverNow(pkt)
	}
}

// Run executes events until the queue drains. It returns the number
// of events executed by this call.
func (s *Scheduler) Run() uint64 {
	start := s.Processed
	for s.Step() {
	}
	return s.Processed - start
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to t. Events scheduled later remain queued.
func (s *Scheduler) RunUntil(t time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor is RunUntil(Now()+d).
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// RunWhile executes events while cond stays true. It returns true if
// cond became false (goal reached) and false if the event queue
// drained first. cond is evaluated before each event.
func (s *Scheduler) RunWhile(cond func() bool) bool {
	for {
		if !cond() {
			return true
		}
		if !s.Step() {
			return false
		}
	}
}

// RunDue runs, in queue order, every event due by t that was scheduled
// before the call, with the clock at t (or left where it is if t is
// earlier: the clock never moves back). An event a callback schedules
// waits for the next call, even one due at once, so a callback that
// re-arms itself at d=0 runs once per call. It is the pass of a
// wall-clock driver, which then waits until NextAt.
func (s *Scheduler) RunDue(t time.Duration) {
	if s.now < t {
		s.now = t
	}
	last := s.seq
	for len(s.queue) > 0 && s.queue[0].at <= t && s.queue[0].seq < last {
		s.runHead()
	}
}

// NextAt returns when the earliest pending event is due; ok is false
// when none is pending.
func (s *Scheduler) NextAt() (at time.Duration, ok bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// Drop cancels every pending event and lets go of it and its callback;
// the handles of dropped timers report inactive.
func (s *Scheduler) Drop() {
	for _, e := range s.queue {
		e.index, e.fn, e.target, e.pkt = -1, nil, nil, nil
	}
	s.queue = nil
}

// Pending returns the number of queued events, for leak checks in
// tests.
func (s *Scheduler) Pending() int { return len(s.queue) }
