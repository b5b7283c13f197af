package punch

import (
	"math/rand"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/sim"
	"natpunch/transport"
)

// The session datagram path's allocation gate and the ownership rules
// it rests on. A session datagram is sent from one reused encoding,
// which SendTo releases before it returns, and received into one
// reused Message, so whatever keeps received bytes past the handler
// must copy them.

// wireConn is a stub socket: it keeps a copy of the last payload it
// was sent, as the transport.UDPConn contract requires of a socket
// that keeps what it is sent.
type wireConn struct {
	onRecv func(from inet.Endpoint, payload []byte)
	sent   int
	last   []byte
}

func (c *wireConn) Local() inet.Endpoint                               { return inet.MustParseEndpoint("10.0.0.1:4321") }
func (c *wireConn) OnRecv(fn func(from inet.Endpoint, payload []byte)) { c.onRecv = fn }
func (c *wireConn) SendTo(to inet.Endpoint, payload []byte) error {
	c.sent++
	c.last = append(c.last[:0], payload...)
	return nil
}
func (c *wireConn) Close() {}

type idleTimer struct{}

func (idleTimer) Stop() bool   { return false }
func (idleTimer) Active() bool { return false }

type wireTransport struct {
	conn transport.UDPConn
	rng  *rand.Rand
}

func (t *wireTransport) BindUDP(inet.Port) (transport.UDPConn, error) { return t.conn, nil }
func (t *wireTransport) After(time.Duration, func()) transport.Timer  { return idleTimer{} }
func (t *wireTransport) Now() time.Duration                           { return time.Second }
func (t *wireTransport) Rand() *rand.Rand                             { return t.rng }
func (t *wireTransport) Invoke(fn func())                             { fn() }

var (
	serverEP = inet.MustParseEndpoint("18.181.0.31:1234")
	bobEP    = inet.MustParseEndpoint("138.76.29.7:31000")
)

const sessionNonce = 42

// aliceWith builds alice over conn with a session to bob adopted on
// the given path; got receives every delivered payload slice as is.
func aliceWith(t *testing.T, conn transport.UDPConn, via Method, got func([]byte)) (*Client, *UDPSession) {
	t.Helper()
	c := NewClientOver(&wireTransport{conn: conn, rng: rand.New(rand.NewSource(1))}, "alice", serverEP, Config{})
	if err := c.bindUDP(0); err != nil {
		t.Fatal(err)
	}
	s := c.newUDPSession("bob", bobEP, via, sessionNonce, UDPCallbacks{
		Data: func(_ *UDPSession, p []byte) { got(p) },
	})
	return c, s
}

// fromBob encodes one session datagram as bob (or the relay on his
// behalf) would put it on the wire.
func fromBob(via Method, seq uint32, data string) []byte {
	m := &proto.Message{Type: proto.TypeData, From: "bob", Nonce: sessionNonce, Seq: seq, Data: []byte(data)}
	if via == MethodRelay {
		m = &proto.Message{Type: proto.TypeRelayed, From: "bob", Target: "alice", Seq: seq, Data: []byte(data)}
	}
	return proto.Encode(m, 0)
}

// TestSessionDatagramZeroAlloc: one Send and one receive of a
// full-size session datagram, direct and relayed, allocate nothing
// once the scratches have grown.
func TestSessionDatagramZeroAlloc(t *testing.T) {
	for _, via := range []Method{MethodPublic, MethodRelay} {
		conn := &wireConn{}
		delivered := 0
		_, s := aliceWith(t, conn, via, func(p []byte) { delivered += len(p) })
		out := make([]byte, 1152)
		in := fromBob(via, 1, string(make([]byte, 1152)))
		from := bobEP
		if via == MethodRelay {
			from = serverEP
		}
		step := func() {
			if err := s.Send(out); err != nil {
				t.Fatal(err)
			}
			conn.onRecv(from, in)
		}
		step()
		step()
		sent, before := conn.sent, delivered
		if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
			t.Errorf("%v: send + receive allocates %v/op in steady state, want 0", via, allocs)
		}
		if conn.sent-sent < 500 || delivered-before < 500*1152 {
			t.Fatalf("%v: %d sent, %d bytes delivered: the path under test did not run", via, conn.sent-sent, delivered-before)
		}
	}
}

// TestSimTransportStillCopies: over the simulated transport, which
// queues a datagram until its delivery time, session datagrams sent
// back to back from the one reused encoding arrive as they were sent,
// and received payloads the application keeps past the handler survive
// the datagrams decoded after them.
func TestSimTransportStillCopies(t *testing.T) {
	n := sim.NewNetwork(1)
	core := n.NewSegment("core", "0.0.0.0/0", 5*time.Millisecond)
	ah, bh := host.New(n, "A", host.BSDStyle), host.New(n, "B", host.BSDStyle)
	aliceEP := inet.MustParseEndpoint("155.99.25.11:4321")
	ah.Attach(core, aliceEP.Addr)
	bh.Attach(core, bobEP.Addr)
	bob, err := bh.Transport().BindUDP(bobEP.Port)
	if err != nil {
		t.Fatal(err)
	}
	var arrived []string
	bob.OnRecv(func(_ inet.Endpoint, p []byte) {
		if m, err := proto.Decode(p); err == nil && m.Type == proto.TypeData {
			arrived = append(arrived, string(m.Data))
		}
	})
	c := NewClientOver(ah.Transport(), "alice", serverEP, Config{})
	if err := c.bindUDP(aliceEP.Port); err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	s := c.newUDPSession("bob", bobEP, MethodPublic, sessionNonce, UDPCallbacks{
		Data: func(_ *UDPSession, p []byte) { kept = append(kept, p) },
	})
	s.Send([]byte("first out"))
	s.Send([]byte("second out"))
	bob.SendTo(aliceEP, fromBob(MethodPublic, 1, "first in"))
	bob.SendTo(aliceEP, fromBob(MethodPublic, 2, "second in"))
	n.Sched.Run()
	if len(arrived) != 2 || arrived[0] != "first out" || arrived[1] != "second out" {
		t.Fatalf("bob received %q: a queued datagram was corrupted by a later send", arrived)
	}
	if len(kept) != 2 || string(kept[0]) != "first in" || string(kept[1]) != "second in" {
		t.Fatalf("payloads the application kept read %q", kept)
	}
}

// TestHeldDatagramsSurviveDecoderReuse: datagrams parked during a
// migration drain outlive the handler that received them, so on the
// reused-decoder path they are copies — the datagrams decoded after
// them, through the same Message, leave them as they arrived.
func TestHeldDatagramsSurviveDecoderReuse(t *testing.T) {
	conn := &wireConn{}
	var got []string
	_, s := aliceWith(t, conn, MethodPublic, func(p []byte) { got = append(got, string(p)) })
	// Bob migrated after sending seq 2 on his old path; seq 3 and 4
	// overtake it on the new one.
	conn.onRecv(bobEP, proto.Encode(&proto.Message{
		Type: proto.TypeMigrate, From: "bob", Nonce: sessionNonce, Seq: 2,
	}, 0))
	conn.onRecv(bobEP, fromBob(MethodPublic, 3, "third, held"))
	conn.onRecv(bobEP, fromBob(MethodPublic, 4, "fourth, held too"))
	if len(s.held) != 2 || len(got) != 0 {
		t.Fatalf("%d held, %d delivered: the drain window is not holding", len(s.held), len(got))
	}
	conn.onRecv(bobEP, fromBob(MethodPublic, 1, "first"))
	conn.onRecv(bobEP, fromBob(MethodPublic, 2, "second, the old path's last"))
	want := []string{"first", "second, the old path's last", "third, held", "fourth, held too"}
	if len(got) != len(want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("datagram %d delivered as %q, want %q", i+1, got[i], want[i])
		}
	}
}

// TestHeldDatagramIsACopy: receive holds its own copy of a datagram
// that overtakes the drain, so whatever the caller's buffer holds
// next (realudp reuses its receive slots) is not what finishDrain
// delivers.
func TestHeldDatagramIsACopy(t *testing.T) {
	var got []string
	_, s := aliceWith(t, &wireConn{}, MethodPublic, func(p []byte) { got = append(got, string(p)) })
	s.draining, s.drainTo = true, 2
	buf := []byte("third, held")
	s.receive(3, buf)
	copy(buf, "overwritten")
	s.finishDrain()
	if len(got) != 1 || got[0] != "third, held" {
		t.Fatalf("finishDrain delivered %q, want [\"third, held\"]", got)
	}
}

// lendingConn adds transport.InPlaceSender the way realudp has it: one
// array of its own, lent whole, and a record of whether what came back
// was built in it.
type lendingConn struct {
	wireConn
	arena   []byte
	inPlace int
}

func (c *lendingConn) Reserve() []byte { return c.arena[:0] }
func (c *lendingConn) Commit(to inet.Endpoint, p []byte) error {
	if len(p) > 0 && cap(c.arena) > 0 && &p[0] == &c.arena[:1][0] {
		c.inPlace++
	}
	return c.SendTo(to, p)
}

// TestSessionDatagramInPlaceZeroAlloc: over a socket that lends its
// send buffer, a session datagram — handed over whole to Send, or
// appended piecemeal between BeginSend and EndSend the way the stream
// engine packs frames — is encoded in that buffer, envelope and all,
// allocates nothing, and is on the wire what every other socket gets:
// the one encoding of the message.
func TestSessionDatagramInPlaceZeroAlloc(t *testing.T) {
	for _, via := range []Method{MethodPublic, MethodRelay} {
		conn := &lendingConn{arena: make([]byte, 0, 2048)}
		c, s := aliceWith(t, conn, via, func([]byte) {})
		if c.sender != conn {
			t.Fatal("in-place path off on a socket that lends its send buffer")
		}
		payload := make([]byte, 1152)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		wire := func(seq uint32) []byte {
			m := &proto.Message{Type: proto.TypeData, From: "alice", Nonce: sessionNonce, Seq: seq, Data: payload}
			if via == MethodRelay {
				m = &proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: seq, Data: payload}
			}
			return proto.Encode(m, 0)
		}
		if err := s.Send(payload); err != nil {
			t.Fatal(err)
		}
		if want := wire(1); string(conn.last) != string(want) {
			t.Fatalf("%v: Send put %d bytes on the wire, want the message's %d-byte encoding", via, len(conn.last), len(want))
		}
		halves := func() {
			buf := s.BeginSend()
			buf = append(buf, payload[:500]...)
			buf = append(buf, payload[500:]...)
			if err := s.EndSend(buf); err != nil {
				t.Fatal(err)
			}
		}
		halves()
		if want := wire(2); string(conn.last) != string(want) {
			t.Fatalf("%v: BeginSend+EndSend put %d bytes on the wire, want the message's %d-byte encoding", via, len(conn.last), len(want))
		}
		if conn.sent != 2 || conn.inPlace != 2 {
			t.Fatalf("%v: %d of %d datagrams were built in the socket's buffer", via, conn.inPlace, conn.sent)
		}
		step := func() {
			s.Send(payload)
			halves()
		}
		if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
			t.Errorf("%v: Send plus BeginSend/EndSend allocate %v/op in steady state, want 0", via, allocs)
		}
		if conn.inPlace != conn.sent {
			t.Errorf("%v: %d of %d datagrams were built in the socket's buffer", via, conn.inPlace, conn.sent)
		}
	}
}

// TestBeginSendOnOtherSockets: on a socket that does not lend its send
// buffer the two halves are Send through a reused scratch, which
// keeps what the appends grew it to and leaves the next datagram as
// encoded, and a closed session sends nothing.
func TestBeginSendOnOtherSockets(t *testing.T) {
	want := func(seq uint32, data string) string {
		return string(proto.Encode(&proto.Message{Type: proto.TypeData, From: "alice", Nonce: sessionNonce, Seq: seq, Data: []byte(data)}, 0))
	}
	conn := &wireConn{}
	c, s := aliceWith(t, conn, MethodPublic, func([]byte) {})
	s.EndSend(append(s.BeginSend(), "one"...))
	if string(conn.last) != want(1, "one") {
		t.Fatalf("first datagram: %q on the wire", conn.last)
	}
	// The appends outgrow the scratch; the next, shorter datagram is
	// encoded into what they grew it to.
	big := string(make([]byte, 1500))
	s.EndSend(append(s.BeginSend(), big...))
	grown := cap(c.sender.Reserve())
	s.EndSend(append(s.BeginSend(), "three"...))
	if string(conn.last) != want(3, "three") || grown < len(want(2, big)) || cap(c.sender.Reserve()) != grown {
		t.Fatalf("after outgrowing the scratch: %q on the wire, scratch cap %d then %d", conn.last, grown, cap(c.sender.Reserve()))
	}

	s.Close()
	sent := conn.sent
	if err := s.EndSend(append(s.BeginSend(), "late"...)); err == nil || conn.sent != sent || s.SentDatagrams != 3 {
		t.Fatalf("closed session: error %v, %d datagrams sent, %d counted; want an error and nothing sent", err, conn.sent-sent, s.SentDatagrams-3)
	}
}
