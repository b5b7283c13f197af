package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"natpunch/transport"
)

// processStart is as close to process start as a Go program can
// observe without reading /proc; setup_s is measured from here.
var processStart = time.Now()

// workload is one traffic mix. run builds its world, starts its load
// goroutines, calls c.measure once, then stops, verifies and tears
// down. Everything the program under test receives is generated from
// c.rng.
type workload struct {
	name   string
	why    string
	opUnit string
	run    func(c *runCtx) error
	extra  bool // not in BENCHMARK.json
}

// load is what a workload's goroutines report while they run.
type load struct {
	ops   atomic.Int64 // operations completed and verified
	bytes atomic.Int64 // application bytes delivered and verified
	// opBytes, when set, makes an operation a fixed number of
	// delivered bytes, so a slice that ends mid-operation counts the
	// fraction.
	opBytes int64
	rec     atomic.Bool // latency samples are kept while set
	stop    atomic.Bool // load goroutines wind down once set

	attempted atomic.Int64
	failed    atomic.Int64 // attempted but lost, refused or timed out

	// The harness parks the load between slices to time its reference
	// on an otherwise idle process: drivers is how many load goroutines
	// call next, parked how many of them are waiting.
	drivers int32
	paused  atomic.Bool
	parked  atomic.Int32

	mu  sync.Mutex
	err error // first incorrect output or harness failure
}

// next reports whether a load goroutine should start another
// operation, parking it first for as long as the harness has the load
// paused.
func (l *load) next() bool {
	if l.paused.Load() {
		l.parked.Add(1)
		for l.paused.Load() && !l.stop.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		l.parked.Add(-1)
	}
	return !l.stop.Load()
}

// done is the operations completed so far.
func (l *load) done() float64 {
	if l.opBytes > 0 {
		return float64(l.bytes.Load()) / float64(l.opBytes)
	}
	return float64(l.ops.Load())
}

func (l *load) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.stop.Store(true)
}

func (l *load) failure() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// slice is one stretch of the measured window, sliceLen long, together
// with the reference reading taken right after it.
type slice struct {
	WallS   float64 `json:"wall_s"`
	Ops     float64 `json:"ops"`
	CPUS    float64 `json:"cpu_s"`     // process user+sys inside the slice
	RefPerS float64 `json:"ref_per_s"` // raw round trips per second just after it; 0 if not taken
	P50us   float64 `json:"op_p50_us"` // median latency of the operations completed inside it

	start time.Duration // since processStart
}

// repResult is one repetition of one workload.
type repResult struct {
	SetupS    float64   `json:"setup_s"`     // process (or rep) start → first timed op, as measured
	SetupCPUS float64   `json:"setup_cpu_s"` // process CPU time spent in it
	Slices    []slice   `json:"slices"`
	Bytes     float64   `json:"bytes"` // application bytes delivered inside the slices
	Lat       []float64 `json:"-"`     // per-op latency inside the window, µs
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`

	// Whole-process observations around the window.
	Mallocs   uint64 `json:"mallocs"`
	GCPauseNs uint64 `json:"gc_pause_ns"`

	// Server counters at teardown.
	Relayed   uint64 `json:"relayed_msgs"`
	SrvErrors uint64 `json:"server_errors"`

	// Traced repetitions only: what the decorated transports did
	// inside the window, by role.
	Seams map[string]seam `json:"-"`
}

// totals sums the slices: measured seconds, operations and CPU
// seconds.
func (r *repResult) totals() (wallS, ops, cpuS float64) {
	for _, s := range r.Slices {
		wallS += s.WallS
		ops += s.Ops
		cpuS += s.CPUS
	}
	return
}

// runCtx is one repetition in progress.
type runCtx struct {
	rng   *rand.Rand
	dur   time.Duration
	tr    *tracer // nil unless this repetition is traced
	start time.Time
	// preamble is the time from process start to the first
	// repetition's start, charged to every repetition's setup so that
	// repetitions compare.
	preamble time.Duration
	cpu0     time.Duration // process CPU time at start
	res      repResult
}

// wrap returns the transport a workload hands to the program under
// test: tr itself, or its traced decoration.
func (c *runCtx) wrap(role string, tr transport.Transport, o wrapOpts) transport.Transport {
	if c.tr == nil {
		return tr
	}
	return c.tr.wrap(role, tr, o)
}

func (c *runCtx) fold(seam transport.Transport) {
	if c.tr != nil {
		c.tr.fold(seam)
	}
}

const (
	// sliceLen is the length of the slices a measured window is cut
	// into; refLen is how long the reference runs between two slices.
	sliceLen = 250 * time.Millisecond
	refLen   = 40 * time.Millisecond
	// parkLimit bounds the wait for the load goroutines to finish the
	// operation they are in and park before the reference runs.
	parkLimit = 50 * time.Millisecond
	// warmLimit bounds how long a workload may take to complete its
	// warm-up operations before the run is declared broken.
	warmLimit = 30 * time.Second
)

// measure waits until the load has completed warmOps operations —
// sockets bound, sessions up, windows open, pools filled — then
// measures c.dur of steady state, cut into slices with a reference
// reading between them. The warm-up is counted in operations, not
// seconds, so that set-up time reflects how fast the system gets
// going instead of a constant.
func (c *runCtx) measure(l *load, warmOps int64) error {
	for begin := time.Now(); l.done() < float64(warmOps); {
		if err := l.failure(); err != nil {
			return err
		}
		if time.Since(begin) > warmLimit {
			return fmt.Errorf("warm-up: %.0f of %d ops after %v", l.done(), warmOps, warmLimit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	ref, err := newRefLoop()
	if err != nil {
		return err
	}
	defer ref.close()

	var ms0, ms1 runtime.MemStats
	var seams0 map[string]seam
	if c.tr != nil {
		seams0 = c.tr.snapshot()
	}
	runtime.ReadMemStats(&ms0)
	c.res.SetupS = (c.preamble + time.Since(c.start)).Seconds()
	c.res.SetupCPUS = (processCPU() - c.cpu0).Seconds()
	l.rec.Store(true)

	for left := c.dur; left > 0 && !l.stop.Load(); {
		t0, ops0, bytes0, cpu0 := time.Now(), l.done(), l.bytes.Load(), processCPU()
		time.Sleep(min(left, sliceLen))
		t1, ops1, bytes1, cpu1 := time.Now(), l.done(), l.bytes.Load(), processCPU()
		left -= t1.Sub(t0)
		s := slice{
			WallS: t1.Sub(t0).Seconds(), Ops: ops1 - ops0, CPUS: (cpu1 - cpu0).Seconds(),
			start: t0.Sub(processStart),
		}
		c.res.Bytes += float64(bytes1 - bytes0)

		// The reference runs with the load parked between operations,
		// so it times the host, not the contention.
		l.paused.Store(true)
		for w := time.Now(); l.parked.Load() < l.drivers && time.Since(w) < parkLimit; {
			time.Sleep(100 * time.Microsecond)
		}
		if l.parked.Load() == l.drivers {
			s.RefPerS = ref.run(refLen)
		}
		l.paused.Store(false)
		c.res.Slices = append(c.res.Slices, s)
	}

	l.rec.Store(false)
	runtime.ReadMemStats(&ms1)
	if c.tr != nil {
		c.res.Seams = make(map[string]seam)
		for role, s := range c.tr.snapshot() {
			c.res.Seams[role] = s.minus(seams0[role])
		}
	}
	c.res.Mallocs = ms1.Mallocs - ms0.Mallocs
	c.res.GCPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	if err := l.failure(); err != nil {
		return err
	}
	if _, ops, _ := c.res.totals(); ops <= 0 {
		return errors.New("no operation completed inside the measured window")
	}
	return nil
}

// refLoop is the reference every time-derived metric is normalised by:
// two plain UDP sockets on loopback, one goroutine echoing, the caller
// ping-ponging 64-byte datagrams. It holds none of the program under
// test — package net only — so a change to the program cannot move it,
// while whatever slows this host down slows it too.
type refLoop struct {
	a, b *net.UDPConn
	toB  netip.AddrPort
	buf  []byte
}

func newRefLoop() (*refLoop, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return nil, err
	}
	b, err := net.ListenUDP("udp4", lo)
	if err != nil {
		a.Close()
		return nil, err
	}
	toA := a.LocalAddr().(*net.UDPAddr).AddrPort()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := b.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed: the measurement is over
			}
			b.WriteToUDPAddrPort(buf[:n], toA)
		}
	}()
	return &refLoop{a: a, b: b, toB: b.LocalAddr().(*net.UDPAddr).AddrPort(), buf: make([]byte, 2048)}, nil
}

func (r *refLoop) close() {
	r.a.Close()
	r.b.Close()
}

// run ping-pongs for d and returns round trips per second, or 0 if a
// datagram went missing.
func (r *refLoop) run(d time.Duration) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 16; i++ {
			if _, err := r.a.WriteToUDPAddrPort(r.buf[:64], r.toB); err != nil {
				return 0
			}
			r.a.SetReadDeadline(time.Now().Add(time.Second))
			if _, _, err := r.a.ReadFromUDPAddrPort(r.buf); err != nil {
				return 0
			}
		}
		n += 16
	}
	return float64(n) / time.Since(t0).Seconds()
}

// latLog is one goroutine's latency samples, each with the time it
// completed.
type latLog struct {
	at []time.Duration // since processStart
	us []float64
}

func (g *latLog) add(end time.Time, d time.Duration) {
	g.at = append(g.at, end.Sub(processStart))
	g.us = append(g.us, float64(d)/1e3)
}

// finish copies the load's totals and latency samples into the result
// once the workload has stopped and verified, and gives every slice
// the median latency of the operations that completed inside it.
func (c *runCtx) finish(l *load, logs ...*latLog) error {
	c.res.Attempted = l.attempted.Load()
	c.res.Failed = l.failed.Load()
	perSlice := make([][]float64, len(c.res.Slices))
	for _, g := range logs {
		c.res.Lat = append(c.res.Lat, g.us...)
		i := 0
		for k, at := range g.at { // a log is in time order
			for i < len(perSlice) && at > c.res.Slices[i].start+time.Duration(c.res.Slices[i].WallS*float64(time.Second)) {
				i++
			}
			if i < len(perSlice) && at >= c.res.Slices[i].start {
				perSlice[i] = append(perSlice[i], g.us[k])
			}
		}
	}
	for i, v := range perSlice {
		c.res.Slices[i].P50us = summarize(v).P50
	}
	return l.failure()
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runRep runs one repetition of w.
func runRep(w *workload, seed int64, rep int, dur time.Duration, tr *tracer, preamble time.Duration) (repResult, error) {
	c := &runCtx{
		rng:      rand.New(rand.NewSource(seed*1009 + int64(rep))),
		dur:      dur,
		tr:       tr,
		start:    time.Now(),
		preamble: preamble,
		cpu0:     processCPU(),
	}
	err := w.run(c)
	return c.res, err
}
