package rendezvous_test

import (
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/proto"
	"natpunch/internal/rendezvous"
	"natpunch/internal/tcp"
	"natpunch/internal/topo"
	"natpunch/rendezvousapi"
)

// rawClient speaks the rendezvous protocol over a bare UDP socket so
// the server is tested without the punch client's logic.
type rawClient struct {
	sock *host.UDPSocket
	got  []*proto.Message
}

func newRawClient(t *testing.T, h *host.Host, port inet.Port) *rawClient {
	t.Helper()
	s, err := h.UDPBind(port)
	if err != nil {
		t.Fatal(err)
	}
	c := &rawClient{sock: s}
	s.OnRecv(func(_ inet.Endpoint, p []byte) {
		if m, err := proto.Decode(p); err == nil {
			c.got = append(c.got, m)
		}
	})
	return c
}

func (c *rawClient) send(server inet.Endpoint, m *proto.Message) {
	c.sock.SendTo(server, proto.Encode(m, 0))
}

func (c *rawClient) find(typ proto.Type) *proto.Message {
	for _, m := range c.got {
		if m.Type == typ {
			return m
		}
	}
	return nil
}

func TestRegistrationRecordsBothEndpoints(t *testing.T) {
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	a.send(srv.Endpoint(), &proto.Message{
		Type: proto.TypeRegister, From: "alice", Private: a.sock.Local(),
	})
	c.RunFor(time.Second)

	ok := a.find(proto.TypeRegisterOK)
	if ok == nil {
		t.Fatal("no RegisterOK")
	}
	// §3.1: public endpoint from the headers (the NAT mapping),
	// private from the body.
	if ok.Public != inet.EP("155.99.25.11", 62000) {
		t.Errorf("public = %v", ok.Public)
	}
	if ok.Private != inet.EP("10.0.0.1", 4321) {
		t.Errorf("private = %v", ok.Private)
	}
	if !srv.Registered("alice") {
		t.Error("server does not know alice")
	}
}

func TestConnectDetailsGoToBothSides(t *testing.T) {
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	b := newRawClient(t, c.B, 4321)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "alice", Private: a.sock.Local()})
	b.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "bob", Private: b.sock.Local()})
	c.RunFor(time.Second)

	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeConnectRequest, From: "alice", Target: "bob", Nonce: 77})
	c.RunFor(time.Second)

	da := a.find(proto.TypeConnectDetails)
	db := b.find(proto.TypeConnectDetails)
	if da == nil || db == nil {
		t.Fatal("details missing on one side")
	}
	if !da.Requester || db.Requester {
		t.Error("requester flags wrong")
	}
	if da.From != "bob" || db.From != "alice" || da.Nonce != 77 || db.Nonce != 77 {
		t.Errorf("details wrong: %+v / %+v", da, db)
	}
	// A learns B's endpoints and vice versa (§3.2 step 2).
	if da.Public != inet.EP("138.76.29.7", 62000) || da.Private != inet.EP("10.1.1.3", 4321) {
		t.Errorf("A's view of B: %v/%v", da.Public, da.Private)
	}
	if db.Public != inet.EP("155.99.25.11", 62000) {
		t.Errorf("B's view of A: %v", db.Public)
	}
}

// TestNegotiateDetailsCarryRegisteredPair: S brokers a negotiation
// from what it registered and observed, not from what the requester
// advertises. A Negotiate carrying a candidate list that disagrees
// with the registry (as a client built before candidate lists left
// the wire sends) gets both NegotiateDetails with the registered
// private endpoints, the observed public ones, and no candidates.
func TestNegotiateDetailsCarryRegisteredPair(t *testing.T) {
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	b := newRawClient(t, c.B, 4321)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "alice", Private: a.sock.Local()})
	b.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "bob", Private: b.sock.Local()})
	c.RunFor(time.Second)

	a.send(srv.Endpoint(), &proto.Message{
		Type: proto.TypeNegotiate, From: "alice", Target: "bob", Nonce: 78,
		Candidates: []proto.Candidate{
			{Kind: proto.CandPrivate, Endpoint: inet.EP("10.9.9.9", 999)},
			{Kind: proto.CandPublic, Endpoint: inet.EP("1.2.3.4", 5)},
			{Kind: proto.CandRelay, Endpoint: inet.EP("18.181.0.99", 1234)},
		},
	})
	c.RunFor(time.Second)

	da := a.find(proto.TypeNegotiateDetails)
	db := b.find(proto.TypeNegotiateDetails)
	if da == nil || db == nil {
		t.Fatal("details missing on one side")
	}
	if !da.Requester || db.Requester || da.From != "bob" || db.From != "alice" || da.Nonce != 78 || db.Nonce != 78 {
		t.Errorf("details wrong: %+v / %+v", da, db)
	}
	if da.Public != inet.EP("138.76.29.7", 62000) || da.Private != inet.EP("10.1.1.3", 4321) {
		t.Errorf("alice's view of bob: %v/%v", da.Public, da.Private)
	}
	if db.Public != inet.EP("155.99.25.11", 62000) || db.Private != inet.EP("10.0.0.1", 4321) {
		t.Errorf("bob's view of alice: %v/%v, want the observed public and the registered private", db.Public, db.Private)
	}
	if len(da.Candidates) != 0 || len(db.Candidates) != 0 {
		t.Errorf("details carry candidate lists: %v / %v", da.Candidates, db.Candidates)
	}
	if st := srv.Stats(); st.NegotiateRequests != 1 || st.ConnectRequests != 0 {
		t.Errorf("stats = %+v, want one negotiation and no connect request", st)
	}
}

func TestConnectUnknownTargetErrors(t *testing.T) {
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "alice", Private: a.sock.Local()})
	c.RunFor(time.Second)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeConnectRequest, From: "alice", Target: "ghost", Nonce: 1})
	c.RunFor(time.Second)
	if a.find(proto.TypeError) == nil {
		t.Error("no error for unknown target")
	}
	if srv.Stats().Errors == 0 {
		t.Error("error not counted")
	}
}

func TestUDPRelayPath(t *testing.T) {
	c := topo.NewCanonical(1, nat.Symmetric(), nat.Symmetric())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	b := newRawClient(t, c.B, 4321)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "alice", Private: a.sock.Local()})
	b.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "bob", Private: b.sock.Local()})
	c.RunFor(time.Second)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Data: []byte("via S")})
	c.RunFor(time.Second)
	r := b.find(proto.TypeRelayed)
	if r == nil || string(r.Data) != "via S" || r.From != "alice" {
		t.Fatalf("relayed = %+v", r)
	}
	if srv.Stats().RelayedBytes != 5 {
		t.Errorf("relayed bytes = %d", srv.Stats().RelayedBytes)
	}
}

// TestRelayOnlySurface: a WithRelayOnly server answers registration
// and keep-alives and forwards RelayTo (§2.2), and drops connection
// requests, negotiations and federation hellos unanswered,
// unforwarded and uncounted.
func TestRelayOnlySurface(t *testing.T) {
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvousapi.Serve(c.S.Transport(), 1234, rendezvousapi.WithRelayOnly())
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	b := newRawClient(t, c.B, 4321)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "alice", Private: a.sock.Local()})
	b.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "bob", Private: b.sock.Local()})
	c.RunFor(time.Second)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeKeepAlive, From: "alice"})
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Data: []byte("via R")})
	c.RunFor(time.Second)

	types := func(ms []*proto.Message) []proto.Type {
		var ts []proto.Type
		for _, m := range ms {
			ts = append(ts, m.Type)
		}
		return ts
	}
	if got := types(a.got); len(got) != 2 || got[0] != proto.TypeRegisterOK || got[1] != proto.TypeRegisterOK {
		t.Errorf("alice got %v; want a RegisterOK for her registration and one for her keep-alive", got)
	}
	if got := types(b.got); len(got) != 2 || got[0] != proto.TypeRegisterOK || got[1] != proto.TypeRelayed || string(b.got[1].Data) != "via R" {
		t.Errorf("bob got %v; want RegisterOK then the relayed payload", got)
	}
	want := rendezvousapi.Stats{RegistrationsUDP: 2, RelayedMessages: 1, RelayedBytes: 5}
	if st := srv.Stats(); st != want {
		t.Errorf("stats = %+v; want %+v", st, want)
	}

	a.got, b.got = nil, nil
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeConnectRequest, From: "alice", Target: "bob", Nonce: 1})
	a.send(srv.Endpoint(), &proto.Message{
		Type: proto.TypeNegotiate, From: "alice", Target: "bob", Nonce: 2,
		Candidates: []proto.Candidate{{Kind: proto.CandPublic, Endpoint: a.sock.Local()}},
	})
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeFedHello})
	c.RunFor(time.Second)
	if len(a.got) != 0 || len(b.got) != 0 {
		t.Errorf("relay-only server answered out-of-scope requests: alice got %v, bob got %v", types(a.got), types(b.got))
	}
	if st := srv.Stats(); st != want {
		t.Errorf("out-of-scope requests counted: stats = %+v; want %+v", st, want)
	}
}

func TestKeepAliveRefreshesPublicEndpoint(t *testing.T) {
	// If the NAT expires a registration mapping, the next keep-alive
	// (through a fresh mapping) must update S's view.
	b := nat.Cone()
	b.UDPTimeout = 20 * time.Second
	c := topo.NewCanonical(1, b, nat.Cone())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	bb := newRawClient(t, c.B, 4321)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "alice", Private: a.sock.Local()})
	bb.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "bob", Private: bb.sock.Local()})
	c.RunFor(time.Second)
	// Let alice's mapping die, then keep-alive through a new mapping.
	c.RunFor(time.Minute)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeKeepAlive, From: "alice"})
	c.RunFor(time.Second)
	// bob asks to connect; the details must carry alice's *new*
	// endpoint (62001, since 62000 expired).
	bb.send(srv.Endpoint(), &proto.Message{Type: proto.TypeConnectRequest, From: "bob", Target: "alice", Nonce: 9})
	c.RunFor(time.Second)
	d := bb.find(proto.TypeConnectDetails)
	if d == nil {
		t.Fatal("no details")
	}
	if d.Public == inet.EP("155.99.25.11", 62000) {
		t.Errorf("stale public endpoint %v delivered after keep-alive refresh", d.Public)
	}
}

func TestTCPRegistrationAndIntroduction(t *testing.T) {
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	var gotA []*proto.Message
	var decA proto.StreamDecoder
	connA, err := c.A.TCPDial(srv.Endpoint(), host.DialOpts{LocalPort: 4321, ReuseAddr: true}, tcp.Callbacks{
		Established: func(cn *tcp.Conn) {
			cn.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypeRegister, From: "alice", Private: cn.Local(),
			}, 0))
		},
		Data: func(cn *tcp.Conn, p []byte) {
			ms, _ := decA.Feed(p)
			gotA = append(gotA, ms...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if len(gotA) == 0 || gotA[0].Type != proto.TypeRegisterOK {
		t.Fatalf("gotA = %+v", gotA)
	}
	if gotA[0].Public.Addr != inet.MustParseAddr("155.99.25.11") {
		t.Errorf("public = %v", gotA[0].Public)
	}
	if srv.Stats().RegistrationsTCP != 1 {
		t.Errorf("stats = %+v", srv.Stats())
	}
	connA.Close()
	c.RunFor(5 * time.Second)
}

// TestReversalNeedsTCPTarget pins that connection reversal (§2.3) is
// served on the TCP surface only, the one punch clients send it on: a
// request toward a peer registered only over UDP counts as an error,
// as one toward an unknown peer does, and nothing is sent to the peer.
func TestReversalNeedsTCPTarget(t *testing.T) {
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newRawClient(t, c.A, 4321)
	a.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "alice", Private: a.sock.Local()})
	b := newRawClient(t, c.B, 4321)
	b.send(srv.Endpoint(), &proto.Message{Type: proto.TypeRegister, From: "bob", Private: b.sock.Local()})
	_, err = c.A.TCPDial(srv.Endpoint(), host.DialOpts{LocalPort: 4321, ReuseAddr: true}, tcp.Callbacks{
		Established: func(cn *tcp.Conn) {
			cn.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypeRegister, From: "alice", Private: cn.Local(),
			}, 0))
			cn.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypeReverseRequest, From: "alice", Target: "bob", Nonce: 7,
			}, 0))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)

	st := srv.Stats()
	if st.RegistrationsUDP != 2 || st.RegistrationsTCP != 1 {
		t.Fatalf("registrations: %+v", st)
	}
	if st.ReversalRequests != 0 || st.Errors != 1 {
		t.Errorf("reversal toward a UDP-only peer: %d served, %d errors; want 0 and 1", st.ReversalRequests, st.Errors)
	}
	if m := b.find(proto.TypeReverseRequest); m != nil {
		t.Errorf("bob was sent %+v over UDP", m)
	}
}
