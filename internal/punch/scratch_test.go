package punch

import (
	"math/rand"
	"testing"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/transport"
)

// The session datagram path's allocation gate and the ownership rules
// it rests on. Over a socket that declares transport.ScratchSender
// (realudp does) a session datagram is sent from one reused encoding
// and received into one reused Message, so whatever keeps received
// bytes past the handler must copy them; over one that does not (the
// simulator) every send and every receive gets fresh memory, because
// that transport queues the slice it is handed and its applications
// keep the slices they are handed.

// wireConn is a stub socket: it keeps the last payload slice it was
// handed — harmless for a ScratchSender, which promises not to look at
// it again, and exactly what the simulator does otherwise.
type wireConn struct {
	onRecv func(from inet.Endpoint, payload []byte)
	sent   int
	last   []byte
}

func (c *wireConn) Local() inet.Endpoint                               { return inet.MustParseEndpoint("10.0.0.1:4321") }
func (c *wireConn) OnRecv(fn func(from inet.Endpoint, payload []byte)) { c.onRecv = fn }
func (c *wireConn) SendTo(to inet.Endpoint, payload []byte) error {
	c.sent++
	c.last = payload
	return nil
}
func (c *wireConn) Close() {}

// scratchConn adds the capability.
type scratchConn struct{ wireConn }

func (c *scratchConn) ScratchSendOK() bool { return true }

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
	if err := c.BindUDP(0); err != nil {
		t.Fatal(err)
	}
	s := c.AdoptUDPSession("bob", bobEP, via, sessionNonce, UDPCallbacks{
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
		conn := &scratchConn{}
		delivered := 0
		c, s := aliceWith(t, conn, via, func(p []byte) { delivered += len(p) })
		if !c.reuse {
			t.Fatal("scratch path off on a ScratchSender socket")
		}
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

// TestSimTransportStillCopies pins the other side of the contract: on
// a socket without the capability a sent payload the transport still
// holds survives the next send, and a received payload the application
// still holds survives the next receive.
func TestSimTransportStillCopies(t *testing.T) {
	conn := &wireConn{}
	var kept [][]byte
	c, s := aliceWith(t, conn, MethodPublic, func(p []byte) { kept = append(kept, p) })
	if c.reuse {
		t.Fatal("scratch path on for a socket without ScratchSendOK")
	}
	s.Send([]byte("first out"))
	first := conn.last
	s.Send([]byte("second out"))
	if m, err := proto.Decode(first); err != nil || string(m.Data) != "first out" {
		t.Fatalf("queued payload corrupted by a later send: %+v %v", m, err)
	}
	conn.onRecv(bobEP, fromBob(MethodPublic, 1, "first in"))
	conn.onRecv(bobEP, fromBob(MethodPublic, 2, "second in"))
	if len(kept) != 2 || string(kept[0]) != "first in" || string(kept[1]) != "second in" {
		t.Fatalf("payloads the application kept read %q", kept)
	}
}

// TestHeldDatagramsSurviveDecoderReuse: datagrams parked during a
// migration drain outlive the handler that received them, so on the
// reused-decoder path they are copies — the datagrams decoded after
// them, through the same Message, leave them as they arrived.
func TestHeldDatagramsSurviveDecoderReuse(t *testing.T) {
	conn := &scratchConn{}
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

// lendingConn adds transport.InPlaceSender the way realudp has it: one
// array of its own, lent whole, and a record of whether what came back
// was built in it.
type lendingConn struct {
	scratchConn
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
		if c.inPlace == nil {
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

// TestBeginSendOnOtherSockets: the two halves are Send on a socket that
// only releases payloads (the client's scratch) and on one that keeps
// them (a fresh array each time, which a later send leaves alone), and
// a closed session sends nothing either way.
func TestBeginSendOnOtherSockets(t *testing.T) {
	want := func(seq uint32, data string) string {
		return string(proto.Encode(&proto.Message{Type: proto.TypeData, From: "alice", Nonce: sessionNonce, Seq: seq, Data: []byte(data)}, 0))
	}
	scratch := &scratchConn{}
	_, s := aliceWith(t, scratch, MethodPublic, func([]byte) {})
	s.EndSend(append(s.BeginSend(), "one"...))
	if string(scratch.last) != want(1, "one") {
		t.Fatalf("scratch socket: %q on the wire", scratch.last)
	}

	keeping := &wireConn{}
	_, s = aliceWith(t, keeping, MethodPublic, func([]byte) {})
	s.EndSend(append(s.BeginSend(), "first out"...))
	first := keeping.last
	s.EndSend(append(s.BeginSend(), "second out"...))
	if string(first) != want(1, "first out") || string(keeping.last) != want(2, "second out") {
		t.Fatalf("keeping socket: %q then %q on the wire", first, keeping.last)
	}

	s.Close()
	sent := keeping.sent
	if err := s.EndSend(append(s.BeginSend(), "late"...)); err == nil || keeping.sent != sent || s.SentDatagrams != 2 {
		t.Fatalf("closed session: error %v, %d datagrams sent, %d counted; want an error and nothing sent", err, keeping.sent-sent, s.SentDatagrams-2)
	}
}
