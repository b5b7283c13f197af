package main

import (
	"container/heap"
	"math/rand"
	"time"

	"natpunch/transport"
)

// memNet is the benchmark's in-memory network: the stub that stands
// in for realudp (and everything below it) when a micro-driver
// measures one layer alone. It runs on the caller's goroutine only.
//
// Serialization contract, the same one transport.Transport demands of
// real sockets: at most one callback (datagram delivery, timer, or
// Invoke body) runs at a time and runs to completion. A SendTo issued
// inside a callback is copied into a FIFO and delivered after that
// callback returns, never re-entrantly; timers fire in (deadline,
// creation) order on a virtual clock that only Step advances. The
// copy-on-send is what lets every memConn promise ScratchSendOK, so a
// server over memNet runs its zero-allocation re-encode path exactly
// as it does over realudp.
type memNet struct {
	now    time.Duration
	timers timerHeap
	seq    uint64
	conns  map[transport.Endpoint]*memConn

	q    []memPkt // FIFO of in-flight datagrams; slots and payloads reused
	head int
	busy bool // a callback is running

	// drop, when set, is asked about every datagram addressed to a
	// bound socket; true loses it.
	drop func(to transport.Endpoint) bool

	sent    uint64 // SendTo calls, delivered or not
	unbound uint64 // addressed to no socket: the handler-only sink
	dropped uint64
}

type memPkt struct {
	from, to transport.Endpoint
	payload  []byte
}

func newMemNet() *memNet {
	return &memNet{conns: make(map[transport.Endpoint]*memConn)}
}

// host returns a transport for one simulated host. Its Rand is seeded,
// so nonces — and therefore every byte on the in-memory wire — repeat
// for a seed.
func (n *memNet) host(addr string, seed int64) *memTransport {
	a, err := transport.ParseAddr(addr)
	if err != nil {
		panic(err)
	}
	return &memTransport{n: n, addr: a, next: 40000, rng: rand.New(rand.NewSource(seed))}
}

// enter runs fn as one serialized callback, then delivers everything
// it (transitively) sent.
func (n *memNet) enter(fn func()) {
	if n.busy {
		panic("memnet: callback entered while another is running")
	}
	n.busy = true
	fn()
	n.busy = false
	n.drain()
}

func (n *memNet) drain() {
	for n.head < len(n.q) {
		p := &n.q[n.head]
		n.head++
		c := n.conns[p.to]
		if c == nil || c.onRecv == nil {
			continue
		}
		n.busy = true
		c.onRecv(p.from, p.payload)
		n.busy = false
	}
	n.q, n.head = n.q[:0], 0
}

// step fires the earliest pending timer, advancing the virtual clock
// to its deadline. It reports false when no timer is pending.
func (n *memNet) step() bool {
	if n.timers.Len() == 0 {
		return false
	}
	t := heap.Pop(&n.timers).(*memTimer)
	if t.at > n.now {
		n.now = t.at
	}
	n.enter(t.fn)
	return true
}

type memTransport struct {
	n    *memNet
	addr transport.Addr
	next transport.Port
	rng  *rand.Rand
}

func (t *memTransport) BindUDP(port transport.Port) (transport.UDPConn, error) {
	if port == 0 {
		port = t.next
		t.next++
	}
	c := &memConn{n: t.n, local: transport.Endpoint{Addr: t.addr, Port: port}}
	t.n.conns[c.local] = c
	return c, nil
}

func (t *memTransport) After(d time.Duration, fn func()) transport.Timer {
	t.n.seq++
	tm := &memTimer{h: &t.n.timers, at: t.n.now + d, seq: t.n.seq, fn: fn}
	heap.Push(tm.h, tm)
	return tm
}

func (t *memTransport) Now() time.Duration { return t.n.now }
func (t *memTransport) Rand() *rand.Rand   { return t.rng }
func (t *memTransport) Invoke(fn func())   { t.n.enter(fn) }

type memConn struct {
	n      *memNet
	local  transport.Endpoint
	onRecv func(from transport.Endpoint, payload []byte)
}

func (c *memConn) Local() transport.Endpoint { return c.local }

func (c *memConn) OnRecv(fn func(from transport.Endpoint, payload []byte)) { c.onRecv = fn }

func (c *memConn) SendTo(to transport.Endpoint, payload []byte) error {
	n := c.n
	n.sent++
	if n.conns[to] == nil {
		n.unbound++
		return nil
	}
	if n.drop != nil && n.drop(to) {
		n.dropped++
		return nil
	}
	if len(n.q) < cap(n.q) {
		n.q = n.q[:len(n.q)+1]
	} else {
		n.q = append(n.q, memPkt{})
	}
	p := &n.q[len(n.q)-1]
	p.from, p.to = c.local, to
	p.payload = append(p.payload[:0], payload...)
	if !n.busy {
		n.drain()
	}
	return nil
}

func (c *memConn) ScratchSendOK() bool { return true }

func (c *memConn) Close() { delete(c.n.conns, c.local) }

// feed hands one datagram straight to the socket's receive callback,
// as the network would, skipping the queue: how the rendezvous
// micro-drivers time a handler without a sender.
func (c *memConn) feed(from transport.Endpoint, payload []byte) {
	n := c.n
	if n.busy {
		panic("memnet: feed from inside a callback")
	}
	n.busy = true
	c.onRecv(from, payload)
	n.busy = false
	n.drain()
}

// memTimer is pending exactly while it sits in the heap (idx >= 0),
// so Stop removes it at once: the stream engine re-arms its one
// retransmission timer on almost every ack, and stopped timers left in
// the heap would outnumber live ones a thousand to one.
type memTimer struct {
	h   *timerHeap
	at  time.Duration
	seq uint64
	fn  func()
	idx int // position in the heap; -1 once fired or stopped
}

func (t *memTimer) Stop() bool {
	if t.idx < 0 {
		return false
	}
	heap.Remove(t.h, t.idx)
	return true
}

func (t *memTimer) Active() bool { return t.idx >= 0 }

type timerHeap []*memTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*memTimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.idx = -1
	return t
}
