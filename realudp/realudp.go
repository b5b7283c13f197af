// Package realudp implements the natpunch transport seam over real
// UDP sockets (package net), so the exact engine the simulator
// validates — internal/punch's hole punching, internal/ice's
// candidate negotiation, internal/rendezvous's brokering, §3.6
// keep-alives and idle death, and the §2.2 relay floor — runs
// between actual hosts.
//
// The engine is single-threaded by contract (see natpunch/transport):
// this implementation serializes everything that enters engine code —
// socket read loops, wall-clock timer callbacks, and Invoke — on one
// mutex per Transport. Timer.Stop/Active are only ever called from
// inside that serialized context, which keeps them lock-free.
//
// # Batched data plane
//
// On Linux the data plane batches kernel crossings. The read loop
// drains up to recvBatch slots per recvmmsg(2) call and delivers the
// whole batch under one mutex acquisition. With UDP GRO (Linux 5.0+,
// set on the transport's own sockets, never on a BatchConn made by
// NewBatchConn) a slot holds a whole run of equal-size datagrams from
// one peer, which the loop delivers one callback per datagram — filter
// and close checks included — so the engine cannot tell a coalesced
// run from its datagrams arriving one to a slot; a slot the kernel
// flags as truncated is dropped as loss. Every entry into the
// serialized context — a delivered batch, an Invoke body, a timer
// callback — is one send batch: the datagrams the engine sends inside
// it queue up back to back in the conn's send arena — built there,
// between Reserve and Commit (transport.InPlaceSender), or copied there
// by SendTo — and leave with one sendmmsg(2) per socket (one segmented
// send per same-size run to one peer, with UDP GSO, straight from the
// arena: a run queued there is one piece of memory already) before the
// entry returns, so everything an Invoke body sent is with the kernel
// when Invoke returns. A relayed stream therefore costs a recvmmsg slot
// per run in and ~1/sendBatch of a syscall per packet out, and a stream
// Write's whole flight costs its writer a syscall or two. The arena
// starts empty, grows with what an entry queues and holds at most one
// segmented send's worth. The entry is also the unit of
// transport.Deferrer's Defer (a deferred function runs when the entry's
// engine code is done and before its sends leave) and of the clock (Now
// is read once as the entry begins).
// Other platforms (and Linux with WithBatching(false)) fall back to a
// portable one-datagram-per-syscall loop with identical semantics.
// Receive buffers are reused on both paths — across datagrams, and on
// the batched path across sockets, through a pool of slabs — so
// delivery callbacks get a slice that is valid only during the
// callback, per the transport.UDPConn ownership contract.
package realudp

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"natpunch/transport"
)

// seedCounter decorrelates the nonce streams of transports created in
// the same wall-clock nanosecond.
var seedCounter atomic.Uint64

// newSeed mixes the creation time and a process-wide counter through
// the splitmix64 finalizer. math/rand folds a seed modulo 2³¹−1, under
// which a plain "time + counter<<32" of two transports created by two
// goroutines two nanoseconds apart can fold to one value: the same
// nonce stream on both, and a peer with two live sessions it cannot
// tell apart.
func newSeed() int64 { return mixSeed(time.Now().UnixNano(), seedCounter.Add(1)) }

func mixSeed(nanos int64, n uint64) int64 {
	z := uint64(nanos) + n*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// ErrClosed is returned by BindUDP after Transport.Close: a bind that
// raced shutdown must not leak a socket and read loop that nobody
// will ever close.
var ErrClosed = errors.New("realudp: transport closed")

// Datagram batch sizing. recvBatch bounds per-socket buffer memory
// (recvBatch slots of recvSlot bytes per conn); sendBatch bounds how many
// engine sends one entry into the serialized context can coalesce
// before a flush in the middle of it.
const (
	recvBatch = 16
	sendBatch = 32
)

// Transport carries the natpunch engine over real UDP sockets bound
// near a configured local address.
type Transport struct {
	mu       sync.Mutex
	laddr    *net.UDPAddr
	start    time.Time
	rng      *rand.Rand
	conns    []*Conn
	first    *Conn
	done     chan struct{}
	batching bool     // construction-time, immutable
	dirty    []*Conn  // under mu: conns with queued sends to flush
	hooks    []func() // under mu: end-of-entry functions (Defer), run by leave
	// inBatch is set while engine code is running (enter/leave) and
	// written under mu; it is atomic, like clock, only so that Now may be
	// called from outside the serialized context.
	inBatch atomic.Bool
	// clock is the latest reading of the wall clock anyone was given,
	// as nanoseconds since start: it only moves forward, and between
	// enter and leave it stands still. See Now.
	clock atomic.Int64
	// filter (under mu) drops inbound datagrams before the engine sees
	// them; see SetPacketFilter.
	filter func(src transport.Endpoint) bool
}

// Option configures a Transport.
type Option func(*Transport)

// WithBatching enables or disables the batched (sendmmsg/recvmmsg)
// data plane. It defaults to on; it is a no-op on platforms without
// the fast path. Disabling it selects the portable loop — useful for
// differential testing and benchmarking the two paths.
func WithBatching(on bool) Option { return func(t *Transport) { t.batching = on } }

// New prepares a transport whose sockets bind at laddr (e.g.
// "0.0.0.0:0" or "127.0.0.1:0"). No socket is bound until the engine
// calls BindUDP.
func New(laddr string, opts ...Option) (*Transport, error) {
	a, err := net.ResolveUDPAddr("udp4", laddr)
	if err != nil {
		return nil, err
	}
	t := &Transport{
		laddr:    a,
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(newSeed())),
		done:     make(chan struct{}),
		batching: true,
	}
	for _, o := range opts {
		o(t)
	}
	return t, nil
}

// Batched reports whether sockets bound by this transport use the
// kernel-batched (sendmmsg/recvmmsg) data plane: true on Linux unless
// disabled with WithBatching(false), false elsewhere.
func (t *Transport) Batched() bool { return t.batching && batchSupported }

// BindUDP binds a socket. Port 0 uses the transport's configured
// local address verbatim; a non-zero port overrides the configured
// port (relay allocations bind consecutive ports this way).
func (t *Transport) BindUDP(port transport.Port) (transport.UDPConn, error) {
	// Refuse after Close: close(t.done) happens under the same
	// serialized context that calls BindUDP, and the channel guards
	// direct (test/application) callers that race shutdown.
	select {
	case <-t.done:
		return nil, ErrClosed
	default:
	}
	addr := *t.laddr
	if port != 0 {
		addr.Port = int(port)
	}
	uc, err := net.ListenUDP("udp4", &addr)
	if err != nil {
		return nil, err
	}
	// Relay-grade socket buffers: a rendezvous or relay server absorbs
	// bursts from many clients between scheduler slices, and the
	// kernel defaults (~200KB) hold only a couple hundred small
	// datagrams. Best effort — a capped rmem_max just clips it.
	uc.SetReadBuffer(1 << 20)
	uc.SetWriteBuffer(1 << 20)
	local, err := ToEndpoint(uc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		uc.Close()
		return nil, err
	}
	c := &Conn{t: t, c: uc, local: local}
	if t.Batched() {
		// A raw-conn failure just means this socket runs the portable
		// loop; the transport stays usable.
		if bc, err := NewBatchConn(uc); err == nil {
			c.bc = bc
		}
	}
	t.conns = append(t.conns, c)
	if t.first == nil {
		t.first = c
	}
	go c.readLoop()
	return c, nil
}

// After schedules fn on a wall-clock timer, serialized with datagram
// delivery.
func (t *Transport) After(d time.Duration, fn func()) transport.Timer {
	tm := &timer{}
	tm.t = time.AfterFunc(d, func() {
		t.enter()
		defer t.leave()
		if tm.stopped {
			return
		}
		select {
		case <-t.done:
			return // transport closed
		default:
		}
		tm.fired = true
		fn()
	})
	return tm
}

// Now returns monotonic elapsed wall time since the transport was
// created. Inside the serialized context it is one reading per entry:
// the clock is read when a delivered batch, an Invoke body or a timer
// callback begins, and every Now until that entry ends returns that
// reading, so a timestamp or an RTT sample taken by engine code is
// early by at most the time the entry has been running (microseconds,
// against a 100 ms minimum retransmission timeout). A caller outside
// the serialized context gets the running entry's reading, or a fresh
// one when none is running; whoever calls, and from whichever
// goroutines, the values never go backwards.
func (t *Transport) Now() time.Duration {
	if t.inBatch.Load() {
		return time.Duration(t.clock.Load())
	}
	return t.readClock()
}

// readClock reads the wall clock, never returning less than any
// reading handed out before it: two goroutines that read nanoseconds
// apart may publish in either order.
func (t *Transport) readClock() time.Duration {
	now := int64(time.Since(t.start))
	for {
		last := t.clock.Load()
		if now <= last {
			return time.Duration(last)
		}
		if t.clock.CompareAndSwap(last, now) {
			return time.Duration(now)
		}
	}
}

// Rand returns the transport's (wall-clock seeded) randomness source.
func (t *Transport) Rand() *rand.Rand { return t.rng }

// Invoke runs fn serialized with delivery and timer callbacks. It
// must not be called from inside an engine callback (the engine never
// does; adapters dispatch application callbacks off-loop instead).
func (t *Transport) Invoke(fn func()) {
	t.enter()
	defer t.leave()
	fn()
}

// Defer implements transport.Deferrer: fn runs once when the engine
// code of the running entry has returned, while what it sends still
// joins the entry's send batch. Engine context only.
func (t *Transport) Defer(fn func()) { t.hooks = append(t.hooks, fn) }

// enter and leave bracket every run of engine code — a delivered
// batch, an Invoke body, a timer callback: the serialization mutex,
// one clock reading, the deferred functions, and one send batch that
// is on the wire when leave returns.
func (t *Transport) enter() {
	t.mu.Lock()
	t.readClock()
	t.inBatch.Store(true)
}

func (t *Transport) leave() {
	if len(t.hooks) > 0 {
		t.runHooksLocked()
	}
	t.inBatch.Store(false)
	t.flushDirtyLocked()
	t.mu.Unlock()
}

// runHooksLocked runs the entry's deferred functions in the order they
// were registered, those registered meanwhile included; on a closed
// transport it only forgets them. The slice is reused, so a steady
// state of one or two hooks per entry allocates nothing.
func (t *Transport) runHooksLocked() {
	select {
	case <-t.done:
	default:
		for i := 0; i < len(t.hooks); i++ {
			t.hooks[i]()
		}
	}
	clear(t.hooks)
	t.hooks = t.hooks[:0]
}

// SetPacketFilter installs an inbound drop filter on every socket of
// this transport — the real-socket mirror of the simulated fabric's
// simnet.World.SetPacketFilter, for deterministic chaos testing: each
// received datagram's source endpoint is passed to f before the
// engine sees it, and the datagram is dropped when f returns false.
// A nil f removes the filter. Outbound traffic is unaffected, which
// is how a real path blackout behaves: packets leave, and never
// arrive — so severing a direct peer path takes a filter at each end
// (keep only datagrams sourced from the rendezvous server), exactly
// like the stream failback conformance tests do.
//
// f runs on the transport's serialized delivery context and must not
// call back into the transport.
func (t *Transport) SetPacketFilter(f func(src transport.Endpoint) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.filter = f
}

// LocalAddr returns the real bound address of the transport's first
// socket, or nil before any BindUDP.
func (t *Transport) LocalAddr() *net.UDPAddr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.first == nil {
		return nil
	}
	return t.first.c.LocalAddr().(*net.UDPAddr)
}

// Close tears down every socket; read loops exit, pending timers
// become no-ops, and later BindUDP calls fail with ErrClosed.
func (t *Transport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		return nil
	default:
		close(t.done)
	}
	for _, c := range t.conns {
		c.closed.Store(true)
		c.c.Close()
	}
	t.conns = nil
	return nil
}

// timer is a wall-clock transport.Timer. Stop/Active run only inside
// the transport's serialized context (engine contract), so plain
// fields suffice.
type timer struct {
	t       *time.Timer
	fired   bool
	stopped bool
}

func (tm *timer) Stop() bool {
	if tm.fired || tm.stopped {
		return false
	}
	tm.stopped = true
	tm.t.Stop()
	return true
}

func (tm *timer) Active() bool { return !tm.fired && !tm.stopped }

// Conn is one bound real UDP socket.
type Conn struct {
	t     *Transport
	c     *net.UDPConn
	bc    *BatchConn // non-nil when this socket runs the batched loop
	local transport.Endpoint
	// closed is atomic because Close may be reached from outside the
	// serialized engine context (facade teardown paths) while the read
	// loop checks it under t.mu.
	closed atomic.Bool
	onRecv func(from transport.Endpoint, payload []byte)
	// The send queue (under t.mu): what engine code sends between enter
	// and leave lies back to back in arena, in the order it was sent,
	// and pend[:npend] are the datagrams, their payloads slices of it
	// with the capacity left on — which is how sendGSO sees that a run
	// is one piece of memory already. A datagram is built there
	// (Reserve, Commit) or copied there (SendTo); leave's flush hands
	// them to the kernel and the arena starts over. len(arena) is what
	// is queued in the current array: when the arena grows, the
	// datagrams queued so far stay where they are, in the old one,
	// until the flush. It starts empty, doubles up to arenaMax while an
	// entry queues more than it holds, and past that flushes in the
	// middle of the entry instead, like a full pend.
	arena []byte
	pend  []Datagram
	npend int
	// last is the size of the datagram sent before this one: what
	// Reserve makes room for. lent says the arena's tail is out with a
	// caller that has not committed it yet.
	last    int
	lent    bool
	inDirty bool
	flushes int // WriteBatch calls so far: what the batch tests count
	copied  int // datagrams copied into the arena, not built there, likewise
	slots   int // recvmmsg slots delivered so far (under t.mu), likewise
}

// Local returns the socket's bound endpoint (the private endpoint of
// §3.1; 0.0.0.0 when bound to the wildcard address, exactly as the
// kernel reports it).
func (c *Conn) Local() transport.Endpoint { return c.local }

// OnRecv installs the delivery callback (engine context only). The
// payload slice passed to fn is reused by the read loop and is valid
// only during the callback.
func (c *Conn) OnRecv(fn func(from transport.Endpoint, payload []byte)) { c.onRecv = fn }

// SendTo transmits one datagram. The payload is released before
// SendTo returns (see ScratchSendOK): copied to the tail of the send
// queue, which leaves when the engine code that is running returns,
// or — on a portable or closed socket, whose error the caller gets at
// once — written to the kernel immediately.
func (c *Conn) SendTo(to transport.Endpoint, payload []byte) error {
	if !c.queueing() {
		return c.writeNow(to, payload)
	}
	c.copied++
	return c.Commit(to, append(c.room(len(payload)), payload...))
}

func (c *Conn) writeNow(to transport.Endpoint, p []byte) error {
	_, err := c.c.WriteToUDPAddrPort(p, toAddrPort(to))
	return err
}

// ScratchSendOK implements transport.ScratchSender: SendTo never
// retains the payload slice, so engine hot paths may encode into
// reusable scratch buffers when sending through this conn.
func (c *Conn) ScratchSendOK() bool { return true }

// queueing reports whether what is sent now joins the send queue:
// engine code is running, on a batched socket that is still open.
func (c *Conn) queueing() bool {
	return c.t.inBatch.Load() && c.bc != nil && !c.closed.Load()
}

// Arena sizing. arenaMin is what a socket's first send allocates: a
// few control messages' worth, because most sockets of a busy process
// are short-lived and never send more. arenaMax is one segmented
// send's worth (gsoMaxBytes): no socket holds more than that, or than
// its largest single datagram.
const (
	arenaMin = 512
	arenaMax = 65000
)

// room returns the arena's free tail with at least n bytes of capacity
// and a free slot in pend to go with it, making them if need be: a
// full pend is flushed; an arena that is short grows, into a new array
// that leaves what is queued where it lies (growing sends nothing), or,
// once it may not grow, is flushed and starts over. A tail that is
// still lent — somebody reserved it and has sent something else since,
// or reserved again — goes to whoever holds it, array and all, so that
// nothing written there late can land on a queued datagram. Runs under
// t.mu, inside an entry.
func (c *Conn) room(n int) []byte {
	if c.npend == sendBatch {
		c.flushLocked()
	}
	if free := cap(c.arena) - len(c.arena); c.lent || free < n {
		want := cap(c.arena)
		if free < n {
			want = max(2*cap(c.arena), len(c.arena)+n, arenaMin)
			if want > arenaMax {
				want = max(arenaMax, n)
			}
		}
		if c.lent || want > cap(c.arena) {
			c.arena = make([]byte, 0, want)
		} else {
			c.flushLocked()
		}
		c.lent = false
	}
	return c.arena[len(c.arena):]
}

// Reserve implements transport.InPlaceSender: the tail of the send
// queue, to build the next datagram in, with room for one the size of
// the last datagram sent — a sender whose datagrams are of a size
// outgrows it once. Off the batched path the arena
// queues nothing and is only the scratch that Commit writes from;
// outside the serialized context nothing of the conn's is safe to
// lend, and the caller's appends allocate.
func (c *Conn) Reserve() []byte {
	if !c.t.inBatch.Load() {
		return nil
	}
	p := c.room(c.last)
	c.lent = true
	return p
}

// Commit implements transport.InPlaceSender: p joins the send queue
// where it was built, or — a buffer that is not the reserved tail,
// because the caller's appends outgrew it, or it never was, or
// something was queued since — as a copy. On a conn that is not
// queueing p is written at once.
func (c *Conn) Commit(to transport.Endpoint, p []byte) error {
	if !c.t.inBatch.Load() {
		return c.writeNow(to, p) // not in the serialized context: touch nothing
	}
	c.last = len(p)
	if c.bc == nil || c.closed.Load() {
		c.lent = false
		return c.writeNow(to, p)
	}
	tail := c.arena[len(c.arena):cap(c.arena)]
	inPlace := len(p) <= len(tail) && (len(p) == 0 || &p[0] == &tail[0])
	if !inPlace || c.npend == sendBatch {
		c.copied++
		copy(c.room(len(p))[:len(p)], p)
	}
	c.lent = false
	if c.npend == len(c.pend) {
		c.pend = append(c.pend, Datagram{})
	}
	n := len(c.arena)
	c.arena = c.arena[:n+len(p)]
	c.pend[c.npend] = Datagram{Addr: toAddrPort(to), Payload: c.arena[n:]}
	c.npend++
	if !c.inDirty {
		c.inDirty = true
		c.t.dirty = append(c.t.dirty, c)
	}
	return nil
}

// flushLocked sends the queued batch with one sendmmsg and empties the
// arena. UDP is lossy by contract and the datagrams' senders were
// already told nil, so send errors are dropped like any other lost
// packet.
func (c *Conn) flushLocked() {
	if c.npend == 0 {
		return
	}
	n := c.npend
	c.npend = 0
	c.flushes++
	c.bc.WriteBatch(c.pend[:n])
	clear(c.pend[:n]) // an array the arena outgrew goes with its last datagram
	c.arena = c.arena[:0]
}

// flushDirtyLocked flushes every conn that queued sends since enter,
// then resets the dirty list. Runs under t.mu.
func (t *Transport) flushDirtyLocked() {
	for i, c := range t.dirty {
		c.flushLocked()
		c.inDirty = false
		t.dirty[i] = nil
	}
	t.dirty = t.dirty[:0]
}

// Close releases the socket; the read loop exits.
func (c *Conn) Close() {
	c.closed.Store(true)
	c.c.Close()
}

func (c *Conn) readLoop() {
	if c.bc != nil {
		c.readLoopBatched()
	} else {
		c.readLoopSimple()
	}
}

// readLoopSimple is the portable loop: one datagram per syscall, one
// mutex acquisition per datagram, one reused receive buffer.
func (c *Conn) readLoopSimple() {
	buf := make([]byte, 64<<10)
	for {
		n, from, err := c.c.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		ep, ok := fromAddrPort(from)
		if !ok {
			continue
		}
		c.t.enter()
		if !c.closed.Load() && c.onRecv != nil &&
			(c.t.filter == nil || c.t.filter(ep)) {
			c.onRecv(ep, buf[:n])
		}
		c.t.leave()
	}
}

// recvSlab is one read loop's receive memory: recvBatch slots of
// recvSlot bytes — any datagram, or any run the kernel coalesces, fits
// one — and the batch bookkeeping over them.
type recvSlab struct {
	ms   [recvBatch]Datagram
	segs [recvBatch]int
	bufs []byte // recvBatch × recvSlot
}

const recvSlot = 64 << 10

// slabs recycles receive slabs across sockets: a fresh MiB zeroed per
// socket was most of what a short-lived connection cost. A recycled
// slab still holds the previous socket's bytes; handlers only ever see
// payloads cut (length and capacity) to what this socket received.
var slabs = sync.Pool{New: func() any { return &recvSlab{bufs: make([]byte, recvBatch*recvSlot)} }}

// readLoopBatched drains up to recvBatch slots per recvmmsg — each one
// datagram or, with UDP GRO, a coalesced run of them — and delivers
// them under a single mutex acquisition.
func (c *Conn) readLoopBatched() {
	slab := slabs.Get().(*recvSlab)
	// Back to the pool only once the last deliverBatch has returned:
	// handlers may not keep a payload past their callback.
	defer slabs.Put(slab)
	c.bc.enableGRO()
	ms, segs := slab.ms[:], slab.segs[:]
	for {
		for i := range ms {
			ms[i] = Datagram{Payload: slab.bufs[i*recvSlot:][:recvSlot]}
		}
		n, err := c.bc.readBatch(ms, segs)
		if err != nil {
			return
		}
		c.t.deliverBatch(c, ms[:n], segs)
	}
}

// deliverBatch feeds one received batch to the engine: slot i as one
// callback per segs[i] bytes of its payload (the last may be shorter),
// or as a single datagram when segs[i] is not inside the payload.
// Everything that is per datagram stays per segment — the close check,
// the filter call — so a coalesced run is indistinguishable from its
// datagrams arriving one slot each.
func (t *Transport) deliverBatch(c *Conn, ms []Datagram, segs []int) {
	t.enter()
	defer t.leave()
	c.slots += len(ms)
	for i := range ms {
		ep, ok := fromAddrPort(ms[i].Addr)
		if !ok {
			continue
		}
		for p := ms[i].Payload; ; {
			// A handler may close this conn mid-batch, mid-run.
			if c.closed.Load() || c.onRecv == nil {
				return
			}
			n := len(p)
			if 0 < segs[i] && segs[i] < n {
				n = segs[i]
			}
			// Capacity cut too: a handler's append must not reach the
			// next segment, nor a reslice the slab's stale bytes.
			seg := p[:n:n]
			p = p[n:]
			if t.filter == nil || t.filter(ep) {
				c.onRecv(ep, seg)
			}
			if len(p) == 0 {
				break
			}
		}
	}
}

// toAddrPort converts a wire endpoint to a netip.AddrPort (both value
// types: no allocation on the send path).
func toAddrPort(ep transport.Endpoint) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4(ep.Addr.Octets()), uint16(ep.Port))
}

// fromAddrPort converts a received source address to the engine's
// endpoint representation, rejecting non-IPv4 sources.
func fromAddrPort(ap netip.AddrPort) (transport.Endpoint, bool) {
	a := ap.Addr().Unmap()
	if !a.Is4() {
		return transport.Endpoint{}, false
	}
	o := a.As4()
	addr := transport.Addr(uint32(o[0])<<24 | uint32(o[1])<<16 | uint32(o[2])<<8 | uint32(o[3]))
	return transport.Endpoint{Addr: addr, Port: transport.Port(ap.Port())}, true
}

// ToEndpoint converts a real UDP address to the engine's wire
// endpoint representation.
func ToEndpoint(a *net.UDPAddr) (transport.Endpoint, error) {
	ip4 := a.IP.To4()
	if ip4 == nil {
		return transport.Endpoint{}, fmt.Errorf("realudp: not an IPv4 address: %v", a)
	}
	var addr transport.Addr
	addr = transport.Addr(uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3]))
	return transport.Endpoint{Addr: addr, Port: transport.Port(a.Port)}, nil
}

// ToUDPAddr converts a wire endpoint back to a dialable address.
func ToUDPAddr(ep transport.Endpoint) *net.UDPAddr {
	o := ep.Addr.Octets()
	return &net.UDPAddr{IP: net.IPv4(o[0], o[1], o[2], o[3]), Port: int(ep.Port)}
}

// ResolveEndpoint resolves "host:port" (names allowed) to a wire
// endpoint.
func ResolveEndpoint(s string) (transport.Endpoint, error) {
	a, err := net.ResolveUDPAddr("udp4", s)
	if err != nil {
		return transport.Endpoint{}, err
	}
	return ToEndpoint(a)
}
