package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"natpunch/internal/proto"
	istream "natpunch/internal/stream"
	"natpunch/transport"
)

// Tracing lives entirely in this file and is entered only through
// tracer.wrap: an untraced run never constructs a tracer, hands the
// program its bare transports, and so cannot pay for any of it. The
// program under test is not touched — every number here comes from
// decorating the public transport.Transport seam the engine already
// runs on, and from timing the benchmark's own calls into the facade.

// span is one timed interval at a layer boundary. Spans form a tree
// through Parent; spans of one application operation share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxSpans caps the in-memory span log; sampling keeps a 10-second
// run of the fastest workload well under it.
const maxSpans = 1 << 17

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover. Children
// of one parent never overlap here (a transport callback runs its
// nested calls one after another), so covered time is their sum,
// clipped to the parent's interval.
func selfTimes(spans []span) map[string]int64 {
	covered := make(map[uint64]int64)
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		p := byID[s.Parent]
		if p == nil {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	self := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		self[s.Name] += max(s.End-s.Start-covered[s.ID], 0)
	}
	return self
}

// seam accumulates what one class of transports (the server's, or the
// clients') did at the seam. Every cell is written from inside the
// owning transport's serialized context and folded into the tracer
// under its mutex when the transport is done.
type seam [nSeam]int64

const (
	recvN      = iota // receive callbacks
	recvNs            // ... their wall time
	recvSendNs        // ... the part of it inside nested SendTo
	timerSet          // After calls
	timerN            // timer callbacks that fired
	timerNs
	timerSendNs
	invokeN // Invoke bodies
	invokeNs
	invokeSendNs
	sendN // SendTo calls
	sendNs
	sendBytes
	dataDgrams // sent stream datagrams carrying payload (sniffed)
	ackDgrams  // sent stream datagrams carrying acks only
	nSeam
)

func (s *seam) add(o *seam) {
	for i := range s {
		s[i] += o[i]
	}
}

func (s seam) minus(o seam) seam {
	for i := range s {
		s[i] -= o[i]
	}
	return s
}

// callbackNs is all wall time spent inside decorated callbacks.
func (s *seam) callbackNs() int64 { return s[recvNs] + s[timerNs] + s[invokeNs] }

const (
	roleServer = "server"
	roleClient = "client"
)

// tracer collects one traced repetition.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	live    []*tracedTransport
	done    map[string]*seam // folded transports, by role
	stages  map[string][]float64
	waits   []float64 // sampled Invoke lock waits, µs
	waitRng *rand.Rand
}

func newTracer() *tracer {
	return &tracer{
		base:    time.Now(),
		done:    map[string]*seam{roleServer: {}, roleClient: {}},
		stages:  make(map[string][]float64),
		waitRng: rand.New(rand.NewSource(1)),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// stage records one stage of a connect (open, dial, first_byte,
// connect), in milliseconds. Safe on a nil tracer, so the connect
// helpers call it unconditionally.
func (t *tracer) stage(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages[name] = append(t.stages[name], float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// maxWaits bounds the Invoke-wait sample (a reservoir beyond it).
const maxWaits = 1 << 16

func (t *tracer) wait(ns int64) {
	t.mu.Lock()
	us := float64(ns) / 1e3
	if len(t.waits) < maxWaits {
		t.waits = append(t.waits, us)
	} else if i := t.waitRng.Intn(maxWaits * 4); i < maxWaits {
		t.waits[i] = us
	}
	t.mu.Unlock()
}

// wrapOpts tunes one decorated transport.
type wrapOpts struct {
	// every records one in every N callbacks as spans (1 = all).
	every uint32
	// sniffStream classifies sent session datagrams as data or
	// ack-only by decoding the stream frames inside.
	sniffStream bool
	// opOf extracts the application operation a received datagram
	// belongs to, when the payload says.
	opOf func(payload []byte) uint64
	// onSend is told the transport's clock at every SendTo: how a
	// virtual-time run counts the datagrams of an interval exactly.
	onSend func(at time.Duration)
}

// wrap decorates tr. The result forwards transport.Waiter when tr has
// it, so a virtual-time world still sees the facade's blocked calls,
// and its sockets forward transport.ScratchSender, so a server keeps
// its zero-copy forward path under tracing.
func (t *tracer) wrap(role string, tr transport.Transport, o wrapOpts) transport.Transport {
	if o.every == 0 {
		o.every = 1
	}
	tt := &tracedTransport{inner: tr, t: t, role: role, o: o}
	t.mu.Lock()
	t.live = append(t.live, tt)
	t.mu.Unlock()
	if w, ok := tr.(transport.Waiter); ok {
		return &tracedWaiter{tracedTransport: tt, w: w}
	}
	return tt
}

// fold retires a transport the workload has closed, keeping its
// counts. A goroutine still unwinding through the closed transport may
// enter it once more; what it adds after this is dropped.
func (t *tracer) fold(tr transport.Transport) {
	var tt *tracedTransport
	switch v := tr.(type) {
	case *tracedTransport:
		tt = v
	case *tracedWaiter:
		tt = v.tracedTransport
	default:
		return
	}
	var st seam
	tt.inner.Invoke(func() { st = tt.st })
	t.mu.Lock()
	for i, l := range t.live {
		if l == tt {
			t.live[i] = t.live[len(t.live)-1]
			t.live = t.live[:len(t.live)-1]
			break
		}
	}
	t.done[tt.role].add(&st)
	t.mu.Unlock()
}

// snapshot sums every transport of each role, live ones read inside
// their own serialized context.
func (t *tracer) snapshot() map[string]seam {
	t.mu.Lock()
	live := append([]*tracedTransport(nil), t.live...)
	out := map[string]seam{roleServer: *t.done[roleServer], roleClient: *t.done[roleClient]}
	t.mu.Unlock()
	for _, tt := range live {
		var st seam
		tt.inner.Invoke(func() { st = tt.st })
		s := out[tt.role]
		s.add(&st)
		out[tt.role] = s
	}
	return out
}

// writeSpans writes the span log as JSON lines, one span a line, and a
// closing line with the self time per span name.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	err = enc.Encode(map[string]any{"self_ns_by_name": selfTimes(spans), "spans": len(spans)})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedTransport decorates one transport.Transport. All of its state
// but curOp is touched only inside the inner transport's serialized
// context, which is where every callback and every SendTo runs.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
	role  string
	o     wrapOpts

	st     seam
	n      uint32 // callbacks seen, for span sampling
	cur    uint64 // span of the running callback when it is recorded
	sendNs int64  // SendTo time inside the running callback

	// curOp is set by the one load goroutine that drives this
	// transport while a sampled operation is in flight: its op id in
	// the low 32 bits, its span id above. Invoke bodies that run
	// meanwhile are recorded as that operation's children.
	curOp atomic.Uint64

	dec    proto.Decoder
	parser istream.Parser
}

type tracedWaiter struct {
	*tracedTransport
	w transport.Waiter
}

func (tw *tracedWaiter) AddWaiter()    { tw.w.AddWaiter() }
func (tw *tracedWaiter) RemoveWaiter() { tw.w.RemoveWaiter() }

// begin opens one serialized callback: it decides whether the
// callback is recorded as a span and zeroes the nested-send clock.
func (tt *tracedTransport) begin(force bool) (start int64) {
	tt.n++
	tt.sendNs, tt.cur = 0, 0
	if force || tt.n%tt.o.every == 0 {
		tt.cur = tt.t.nextID.Add(1)
	}
	return tt.t.now()
}

// end closes the callback begun at start, charging its wall time and
// the SendTo time nested in it to cells n, ns and ns+1 of the seam.
func (tt *tracedTransport) end(name string, parent, op uint64, start int64, n int) {
	now := tt.t.now()
	if tt.cur != 0 {
		tt.t.record(span{ID: tt.cur, Parent: parent, Op: op, Name: tt.role + "." + name, Start: start, End: now})
		tt.cur = 0
	}
	tt.st[n]++
	tt.st[n+1] += now - start
	tt.st[n+2] += tt.sendNs
}

func (tt *tracedTransport) BindUDP(port transport.Port) (transport.UDPConn, error) {
	c, err := tt.inner.BindUDP(port)
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{inner: c, tt: tt}
	if ss, ok := c.(transport.ScratchSender); ok {
		return &tracedScratchConn{tracedConn: tc, ss: ss}, nil
	}
	return tc, nil
}

func (tt *tracedTransport) After(d time.Duration, fn func()) transport.Timer {
	tt.st[timerSet]++
	return tt.inner.After(d, func() {
		start := tt.begin(false)
		fn()
		tt.end("timer", 0, 0, start, timerN)
	})
}

func (tt *tracedTransport) Now() time.Duration { return tt.inner.Now() }
func (tt *tracedTransport) Rand() *rand.Rand   { return tt.inner.Rand() }

func (tt *tracedTransport) Invoke(fn func()) {
	t0 := tt.t.now()
	tt.inner.Invoke(func() {
		cur := tt.curOp.Load()
		start := tt.begin(cur != 0)
		fn()
		tt.end("invoke", cur>>32, cur&0xffffffff, start, invokeN)
		if tt.st[invokeN]%16 == 0 {
			tt.t.wait(start - t0)
		}
	})
}

// beginOp opens an application-level span for a sampled operation and
// makes it the parent of the Invoke bodies this transport runs until
// endOp. Only the single goroutine driving tt may call it.
func (tt *tracedTransport) beginOp(op uint64) (id uint64, start int64) {
	id = tt.t.nextID.Add(1)
	tt.curOp.Store(id<<32 | op&0xffffffff)
	return id, tt.t.now()
}

func (tt *tracedTransport) endOp(id uint64, op uint64, start int64) {
	tt.curOp.Store(0)
	tt.t.record(span{ID: id, Op: op & 0xffffffff, Name: "op", Start: start, End: tt.t.now()})
}

type tracedConn struct {
	inner transport.UDPConn
	tt    *tracedTransport
}

type tracedScratchConn struct {
	*tracedConn
	ss transport.ScratchSender
}

func (c *tracedScratchConn) ScratchSendOK() bool { return c.ss.ScratchSendOK() }

func (c *tracedConn) Local() transport.Endpoint { return c.inner.Local() }
func (c *tracedConn) Close()                    { c.inner.Close() }

func (c *tracedConn) OnRecv(fn func(from transport.Endpoint, payload []byte)) {
	tt := c.tt
	c.inner.OnRecv(func(from transport.Endpoint, payload []byte) {
		var op uint64
		if tt.o.opOf != nil {
			op = tt.o.opOf(payload)
		}
		start := tt.begin(false)
		fn(from, payload)
		tt.end("recv", 0, op, start, recvN)
	})
}

func (c *tracedConn) SendTo(to transport.Endpoint, payload []byte) error {
	tt := c.tt
	if tt.o.sniffStream {
		tt.sniff(payload)
	}
	if tt.o.onSend != nil {
		tt.o.onSend(tt.inner.Now())
	}
	t0 := tt.t.now()
	err := c.inner.SendTo(to, payload)
	t1 := tt.t.now()
	tt.st[sendN]++
	tt.st[sendNs] += t1 - t0
	tt.st[sendBytes] += int64(len(payload))
	tt.sendNs += t1 - t0
	if tt.cur != 0 {
		tt.t.record(span{ID: tt.t.nextID.Add(1), Parent: tt.cur, Name: "realudp.sendto", Start: t0, End: t1})
	}
	return err
}

// sniff classifies one outgoing session datagram by the stream frames
// it carries: any frame with payload bytes makes it a data datagram;
// otherwise an acknowledgment makes it an ack datagram.
func (tt *tracedTransport) sniff(p []byte) {
	m, err := tt.dec.Decode(p)
	if err != nil || (m.Type != proto.TypeData && m.Type != proto.TypeRelayTo) || len(m.Data) == 0 {
		return
	}
	var data, ack bool
	if tt.parser.Parse(m.Data, func(f istream.Frame) error {
		switch {
		case f.Type == proto.TypeStream && len(f.Data) > 0:
			data = true
		case f.Type == proto.TypeStreamAck:
			ack = true
		}
		return nil
	}) != nil {
		return
	}
	switch {
	case data:
		tt.st[dataDgrams]++
	case ack:
		tt.st[ackDgrams]++
	}
}
