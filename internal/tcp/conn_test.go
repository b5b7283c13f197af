package tcp

import (
	"bytes"
	"testing"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/sim"
)

// wire connects two Conns through a scheduler with a fixed one-way
// latency and an optional per-packet drop filter, bypassing the host
// stack so the state machine is tested in isolation.
type wire struct {
	sched   *sim.Scheduler
	latency time.Duration
	// drop decides whether to discard a packet; from is "a" or "b".
	drop func(from string, pkt *inet.Packet) bool

	a, b *side
}

type side struct {
	w       *wire
	name    string
	conn    *Conn
	peer    *side
	estab   bool
	rcvd    bytes.Buffer
	errs    []error
	closed  bool
	remClos bool
}

func newWire(latency time.Duration) *wire {
	w := &wire{sched: sim.NewScheduler(1), latency: latency}
	w.a = &side{w: w, name: "a"}
	w.b = &side{w: w, name: "b"}
	w.a.peer, w.b.peer = w.b, w.a
	return w
}

func (s *side) env() Env {
	return Env{
		Now:   s.w.sched.Now,
		After: s.w.sched.After,
		Send: func(pkt *inet.Packet) {
			if s.w.drop != nil && s.w.drop(s.name, pkt) {
				return
			}
			peer := s.peer
			s.w.sched.After(s.w.latency, func() {
				if peer.conn != nil {
					peer.conn.Deliver(pkt)
				}
			})
		},
		Remove: func(*Conn) {},
	}
}

func (s *side) callbacks() Callbacks {
	return Callbacks{
		Established:  func(*Conn) { s.estab = true },
		Data:         func(_ *Conn, p []byte) { s.rcvd.Write(p) },
		RemoteClosed: func(*Conn) { s.remClos = true },
		Closed:       func(*Conn) { s.closed = true },
		Error:        func(_ *Conn, err error) { s.errs = append(s.errs, err) },
	}
}

var (
	epA = inet.EP("10.0.0.1", 4321)
	epB = inet.EP("10.1.1.3", 4321)
)

// dialPair sets up an active opener (a) and a passive acceptor (b).
// b's conn is created on receipt of a's first SYN, as a listener
// would.
func dialPair(w *wire) {
	w.b.conn = nil
	w.a.conn = NewConn(w.a.env(), Config{}, epA, epB, 1000, w.a.callbacks())
	// Wrap a's Send so the first SYN reaching b creates the passive conn.
	origEnv := w.a.env()
	origEnv.Send = func(pkt *inet.Packet) {
		if w.drop != nil && w.drop("a", pkt) {
			return
		}
		w.sched.After(w.latency, func() {
			if w.b.conn == nil {
				if pkt.Flags.Has(inet.FlagSYN) && !pkt.Flags.Has(inet.FlagACK) {
					w.b.conn = NewConn(w.b.env(), Config{}, epB, epA, 5000, w.b.callbacks())
					w.b.conn.OpenPassive(pkt)
				}
				return
			}
			w.b.conn.Deliver(pkt)
		})
	}
	w.a.conn.env = origEnv
	w.a.conn.Open()
}

func TestThreeWayHandshake(t *testing.T) {
	w := newWire(10 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(time.Second)

	if !w.a.estab || !w.b.estab {
		t.Fatalf("handshake incomplete: a=%v b=%v", w.a.estab, w.b.estab)
	}
	if w.a.conn.State() != Established || w.b.conn.State() != Established {
		t.Fatalf("states: a=%v b=%v", w.a.conn.State(), w.b.conn.State())
	}
	if !w.b.conn.Accepted || w.a.conn.Accepted {
		t.Error("Accepted flags wrong")
	}
}

func TestDataTransferBothDirections(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)

	msgA := bytes.Repeat([]byte("abcdefgh"), 1000) // 8000 B > several MSS
	msgB := []byte("short reply")
	if err := w.a.conn.Write(msgA); err != nil {
		t.Fatal(err)
	}
	if err := w.b.conn.Write(msgB); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(2 * time.Second)

	if !bytes.Equal(w.b.rcvd.Bytes(), msgA) {
		t.Errorf("b received %d bytes, want %d", w.b.rcvd.Len(), len(msgA))
	}
	if !bytes.Equal(w.a.rcvd.Bytes(), msgB) {
		t.Errorf("a received %q", w.a.rcvd.Bytes())
	}
}

func TestWriteBeforeEstablishedIsBuffered(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	// Write immediately, before the handshake completes.
	if err := w.a.conn.Write([]byte("early data")); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(time.Second)
	if got := w.b.rcvd.String(); got != "early data" {
		t.Errorf("b received %q", got)
	}
}

func TestGracefulClose(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)

	w.a.conn.Write([]byte("bye"))
	w.a.conn.Close()
	w.sched.RunFor(200 * time.Millisecond)

	if !w.b.remClos {
		t.Fatal("b did not see remote close")
	}
	if w.b.conn.State() != CloseWait {
		t.Fatalf("b state = %v, want CLOSE-WAIT", w.b.conn.State())
	}
	if w.b.rcvd.String() != "bye" {
		t.Errorf("data lost on close: %q", w.b.rcvd.String())
	}
	// b can still send in CLOSE-WAIT (half-close).
	if err := w.b.conn.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(200 * time.Millisecond)
	if w.a.rcvd.String() != "late" {
		t.Errorf("half-close data lost: %q", w.a.rcvd.String())
	}

	w.b.conn.Close()
	w.sched.RunFor(5 * time.Second) // covers TIME-WAIT
	if w.a.conn.State() != Closed || w.b.conn.State() != Closed {
		t.Errorf("final states: a=%v b=%v", w.a.conn.State(), w.b.conn.State())
	}
	if !w.a.closed || !w.b.closed {
		t.Error("closed callbacks missing")
	}
	if len(w.a.errs)+len(w.b.errs) != 0 {
		t.Errorf("unexpected errors: %v %v", w.a.errs, w.b.errs)
	}
}

func TestSimultaneousOpen(t *testing.T) {
	// Both ends actively open; SYNs cross on the wire (§4.4). Both
	// must reach ESTABLISHED without a listener anywhere.
	w := newWire(10 * time.Millisecond)
	w.a.conn = NewConn(w.a.env(), Config{}, epA, epB, 1000, w.a.callbacks())
	w.b.conn = NewConn(w.b.env(), Config{}, epB, epA, 5000, w.b.callbacks())
	w.a.conn.Open()
	w.b.conn.Open()
	w.sched.RunFor(2 * time.Second)

	if !w.a.estab || !w.b.estab {
		t.Fatalf("simultaneous open failed: a=%v/%v b=%v/%v",
			w.a.estab, w.a.conn.State(), w.b.estab, w.b.conn.State())
	}
	// Data still flows.
	w.a.conn.Write([]byte("x"))
	w.b.conn.Write([]byte("y"))
	w.sched.RunFor(time.Second)
	if w.b.rcvd.String() != "x" || w.a.rcvd.String() != "y" {
		t.Errorf("data after simultaneous open: a=%q b=%q", w.a.rcvd.String(), w.b.rcvd.String())
	}
}

func TestSimultaneousClose(t *testing.T) {
	w := newWire(10 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	// Both close at the same instant: FINs cross, CLOSING path.
	w.a.conn.Close()
	w.b.conn.Close()
	w.sched.RunFor(10 * time.Second)
	if w.a.conn.State() != Closed || w.b.conn.State() != Closed {
		t.Errorf("states after simultaneous close: a=%v b=%v", w.a.conn.State(), w.b.conn.State())
	}
}

func TestSYNRetransmission(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dropped := 0
	w.drop = func(from string, pkt *inet.Packet) bool {
		// Drop a's first SYN only.
		if from == "a" && pkt.Flags == inet.FlagSYN && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	dialPair(w)
	w.sched.RunFor(10 * time.Second)
	if dropped != 1 {
		t.Fatalf("filter dropped %d", dropped)
	}
	if !w.a.estab || !w.b.estab {
		t.Fatal("handshake did not recover from lost SYN")
	}
	// The retransmit happens after synRTO (1s).
	if w.sched.Now() < time.Second {
		t.Errorf("recovered suspiciously fast: %v", w.sched.Now())
	}
}

func TestSYNRetriesExhausted(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	w.drop = func(from string, pkt *inet.Packet) bool { return from == "a" }
	w.a.conn = NewConn(w.a.env(), Config{SYNRetries: 2}, epA, epB, 1000, w.a.callbacks())
	w.a.conn.Open()
	w.sched.Run()
	if len(w.a.errs) != 1 || w.a.errs[0] != ErrTimeout {
		t.Fatalf("errs = %v, want ErrTimeout", w.a.errs)
	}
	if w.a.conn.State() != Closed || !w.a.closed {
		t.Error("conn not torn down after timeout")
	}
}

func TestRSTDuringSynSent(t *testing.T) {
	// A NAT that rejects unsolicited SYNs with RST (§5.2) must surface
	// ErrReset so the application can retry.
	w := newWire(5 * time.Millisecond)
	w.a.conn = NewConn(w.a.env(), Config{}, epA, epB, 1000, w.a.callbacks())
	w.a.conn.Open()
	w.sched.RunFor(time.Millisecond)
	w.a.conn.Deliver(&inet.Packet{
		Proto: inet.TCP, Src: epB, Dst: epA,
		Flags: inet.FlagRST | inet.FlagACK, Ack: 1001,
	})
	if len(w.a.errs) != 1 || w.a.errs[0] != ErrReset {
		t.Fatalf("errs = %v, want ErrReset", w.a.errs)
	}
}

func TestRSTInEstablished(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	w.b.conn.Abort()
	w.sched.RunFor(100 * time.Millisecond)
	if len(w.a.errs) != 1 || w.a.errs[0] != ErrReset {
		t.Fatalf("a.errs = %v, want ErrReset", w.a.errs)
	}
	if !w.a.closed || !w.b.closed {
		t.Error("both sides should be closed after abort")
	}
}

func TestICMPUnreachableDuringConnect(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	w.a.conn = NewConn(w.a.env(), Config{}, epA, epB, 1000, w.a.callbacks())
	w.a.conn.Open()
	w.a.conn.DeliverICMP(&inet.Packet{Proto: inet.ICMP, ICMP: inet.ICMPHostUnreachable})
	if len(w.a.errs) != 1 || w.a.errs[0] != ErrUnreachable {
		t.Fatalf("errs = %v, want ErrUnreachable", w.a.errs)
	}
}

func TestICMPIgnoredWhenEstablished(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	w.a.conn.DeliverICMP(&inet.Packet{Proto: inet.ICMP, ICMP: inet.ICMPHostUnreachable})
	if len(w.a.errs) != 0 || w.a.conn.State() != Established {
		t.Error("established conn must ignore ICMP unreachable")
	}
}

func TestLossyDataRecovery(t *testing.T) {
	w := newWire(2 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	// Drop every 5th data segment once.
	n := 0
	w.drop = func(from string, pkt *inet.Packet) bool {
		if from == "a" && len(pkt.Payload) > 0 {
			n++
			return n%5 == 0
		}
		return false
	}
	msg := bytes.Repeat([]byte("0123456789abcdef"), 2000) // 32 KB
	w.a.conn.Write(msg)
	w.sched.RunFor(30 * time.Second)
	if !bytes.Equal(w.b.rcvd.Bytes(), msg) {
		t.Fatalf("b received %d bytes, want %d (in order)", w.b.rcvd.Len(), len(msg))
	}
}

func TestOutOfOrderSegmentDropped(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	// Craft an out-of-order segment well ahead of rcvNxt.
	ahead := &inet.Packet{
		Proto: inet.TCP, Src: epA, Dst: epB, Flags: inet.FlagACK,
		Seq: w.b.conn.rcvNxt + 999, Ack: w.b.conn.sndNxt, Payload: []byte("future"),
	}
	w.b.conn.Deliver(ahead)
	if w.b.rcvd.Len() != 0 {
		t.Error("out-of-order payload delivered to app")
	}
	if w.b.conn.State() != Established {
		t.Error("connection disturbed by out-of-order segment")
	}
}

func TestDuplicateSegmentReACKed(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	w.a.conn.Write([]byte("hello"))
	w.sched.RunFor(100 * time.Millisecond)
	// Replay the same payload at the old sequence number.
	dup := &inet.Packet{
		Proto: inet.TCP, Src: epA, Dst: epB, Flags: inet.FlagACK,
		Seq: w.a.conn.iss + 1, Ack: w.b.conn.iss + 1, Payload: []byte("hello"),
	}
	w.b.conn.Deliver(dup)
	w.sched.RunFor(100 * time.Millisecond)
	if got := w.b.rcvd.String(); got != "hello" {
		t.Errorf("duplicate delivered twice: %q", got)
	}
}

func TestFINWithPayloadPiggyback(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	fin := &inet.Packet{
		Proto: inet.TCP, Src: epA, Dst: epB, Flags: inet.FlagACK | inet.FlagFIN,
		Seq: w.a.conn.iss + 1, Ack: w.b.conn.iss + 1, Payload: []byte("last"),
	}
	w.b.conn.Deliver(fin)
	if w.b.rcvd.String() != "last" || !w.b.remClos {
		t.Errorf("piggybacked FIN mishandled: data=%q remClos=%v", w.b.rcvd.String(), w.b.remClos)
	}
	if w.b.conn.State() != CloseWait {
		t.Errorf("state = %v", w.b.conn.State())
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	w.a.conn.Close()
	if err := w.a.conn.Write([]byte("x")); err != ErrClosed {
		t.Errorf("Write after Close = %v, want ErrClosed", err)
	}
	w.sched.RunFor(5 * time.Second)
	if err := w.a.conn.Write([]byte("x")); err == nil {
		t.Error("Write on closed conn succeeded")
	}
}

func TestCloseInSynSent(t *testing.T) {
	w := newWire(5 * time.Millisecond)
	w.drop = func(string, *inet.Packet) bool { return true }
	w.a.conn = NewConn(w.a.env(), Config{}, epA, epB, 1000, w.a.callbacks())
	w.a.conn.Open()
	w.a.conn.Close()
	if w.a.conn.State() != Closed || !w.a.closed {
		t.Error("close in SYN-SENT should tear down immediately")
	}
	if len(w.a.errs) != 0 {
		t.Errorf("errs = %v", w.a.errs)
	}
	w.sched.Run()
}

func TestHalfOpenSynAckGetsRST(t *testing.T) {
	// A SYN-ACK acking a sequence number we never sent must draw an
	// RST (RFC 793 half-open recovery).
	w := newWire(5 * time.Millisecond)
	var sent []*inet.Packet
	env := w.a.env()
	env.Send = func(pkt *inet.Packet) { sent = append(sent, pkt) }
	c := NewConn(env, Config{}, epA, epB, 1000, w.a.callbacks())
	c.Open()
	c.Deliver(&inet.Packet{
		Proto: inet.TCP, Src: epB, Dst: epA,
		Flags: inet.FlagSYN | inet.FlagACK, Seq: 42, Ack: 999999,
	})
	last := sent[len(sent)-1]
	if !last.Flags.Has(inet.FlagRST) || last.Seq != 999999 {
		t.Errorf("expected RST seq=999999, got %v", last)
	}
	if c.State() != SynSent {
		t.Errorf("state = %v, want SYN-SENT", c.State())
	}
}

func TestAbortFromDataCallback(t *testing.T) {
	// Aborting from inside the Data callback must not crash or
	// double-fire callbacks.
	w := newWire(5 * time.Millisecond)
	dialPair(w)
	w.sched.RunFor(100 * time.Millisecond)
	closedCount := 0
	w.b.conn.cb.Data = func(c *Conn, p []byte) { c.Abort() }
	w.b.conn.cb.Closed = func(*Conn) { closedCount++ }
	w.a.conn.Write([]byte("boom"))
	w.sched.RunFor(time.Second)
	if closedCount != 1 {
		t.Errorf("closed fired %d times", closedCount)
	}
	if w.b.conn.State() != Closed {
		t.Error("b not closed")
	}
}

func TestStateString(t *testing.T) {
	for s := Closed; s <= TimeWait; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty name", s)
		}
	}
	if Established.String() != "ESTABLISHED" || State(99).String() == "" {
		t.Error("state names wrong")
	}
}
