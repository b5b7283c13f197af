package rendezvous

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

// The allocs/op regression gate for the server's packets-per-second
// ceiling: the relay, forwarder, and keep-alive paths must run
// without a single steady-state heap allocation. CI runs these tests by name; a
// regression here is a regression in relay goodput.

// stubConn is a conn that counts sends and copies each payload into
// one reused buffer, as the transport.UDPConn contract requires of a
// conn that keeps what it is sent, isolating the server's own
// allocation behavior.
type stubConn struct {
	local  inet.Endpoint
	onRecv func(from inet.Endpoint, payload []byte)
	sent   int
	lastTo inet.Endpoint
	last   []byte
}

func (c *stubConn) Local() inet.Endpoint                               { return c.local }
func (c *stubConn) OnRecv(fn func(from inet.Endpoint, payload []byte)) { c.onRecv = fn }
func (c *stubConn) SendTo(to inet.Endpoint, payload []byte) error {
	c.sent++
	c.lastTo = to
	c.last = append(c.last[:0], payload...)
	return nil
}
func (c *stubConn) Close() {}

type stubTimer struct{}

func (stubTimer) Stop() bool   { return false }
func (stubTimer) Active() bool { return false }

type stubTransport struct {
	conn *stubConn
	rng  *rand.Rand
}

func (t *stubTransport) BindUDP(port inet.Port) (transport.UDPConn, error) { return t.conn, nil }
func (t *stubTransport) After(d time.Duration, fn func()) transport.Timer  { return stubTimer{} }
func (t *stubTransport) Now() time.Duration                                { return time.Second }
func (t *stubTransport) Rand() *rand.Rand                                  { return t.rng }
func (t *stubTransport) Invoke(fn func())                                  { fn() }

// allocServer builds a server over the stub transport with alice and
// bob registered via real wire traffic.
func allocServer(t testing.TB, cfg Config) (*Server, *stubConn) {
	t.Helper()
	conn := &stubConn{local: inet.MustParseEndpoint("18.181.0.31:1234")}
	s, err := Serve(&stubTransport{conn: conn, rng: rand.New(rand.NewSource(1))}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob"} {
		wire := proto.Encode(&proto.Message{
			Type: proto.TypeRegister, From: name,
			Private: inet.MustParseEndpoint("10.0.0.1:4321"),
		}, 0)
		conn.onRecv(clientEP(name), wire)
	}
	return s, conn
}

func clientEP(name string) inet.Endpoint {
	if name == "alice" {
		return inet.MustParseEndpoint("155.99.25.11:62000")
	}
	return inet.MustParseEndpoint("138.76.29.7:31000")
}

func requireZeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	fn() // warm up scratch buffers and intern table
	fn()
	if allocs := testing.AllocsPerRun(500, fn); allocs != 0 {
		t.Errorf("%s allocates %v/op in steady state, want 0", what, allocs)
	}
}

// TestRelayForwardZeroAlloc pins the §2.2 relay forward path —
// decode, registry lookup, copy with the type byte rewritten, send —
// at zero allocations per relayed datagram.
func TestRelayForwardZeroAlloc(t *testing.T) {
	s, conn := allocServer(t, Config{})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "bob",
		Seq: 7, Data: []byte("relay payload of plausible size, 48 bytes or so"),
	}, 0)
	src := clientEP("alice")
	before := conn.sent
	requireZeroAllocs(t, "relay forward", func() {
		conn.onRecv(src, wire)
	})
	if conn.sent == before || conn.lastTo != clientEP("bob") {
		t.Fatalf("relay did not forward (sent=%d, lastTo=%v)", conn.sent, conn.lastTo)
	}
	if s.Stats().RelayedMessages == 0 {
		t.Fatal("relay stats not counted")
	}
}

// TestRelayOnlyZeroAlloc runs the same gate in RelayOnly mode — the
// standalone relay tier deployment (rendezvousapi.WithRelayOnly).
func TestRelayOnlyZeroAlloc(t *testing.T) {
	_, conn := allocServer(t, Config{RelayOnly: true})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "bob",
		Seq: 9, Data: []byte("x"),
	}, 0)
	src := clientEP("alice")
	requireZeroAllocs(t, "relay-only forward", func() {
		conn.onRecv(src, wire)
	})
}

// TestFederatedRelayZeroAlloc pins the federated variant: the relayed
// bytes are copied into the inner scratch and wrapped in a FedForward
// to the target's home server — still zero allocations.
func TestFederatedRelayZeroAlloc(t *testing.T) {
	s, conn := allocServer(t, Config{})
	home := inet.MustParseEndpoint("18.181.0.32:1234")
	s.reg.put(Record{
		Name: "carol", Public: inet.MustParseEndpoint("204.16.1.9:7000"),
		Home: home, ExpiresAt: 0,
	}, s.now())
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "carol",
		Seq: 3, Data: []byte("cross-server relay"),
	}, 0)
	src := clientEP("alice")
	before := conn.sent
	requireZeroAllocs(t, "federated relay forward", func() {
		conn.onRecv(src, wire)
	})
	if conn.sent == before || conn.lastTo != home {
		t.Fatalf("federated relay did not route via home (lastTo=%v)", conn.lastTo)
	}
}

// TestForwarderZeroAlloc pins §3.2 step 2 — one ConnectRequest fans
// out two ConnectDetails — at zero allocations per request.
func TestForwarderZeroAlloc(t *testing.T) {
	_, conn := allocServer(t, Config{})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeConnectRequest, From: "alice", Target: "bob", Nonce: 42,
	}, 0)
	src := clientEP("alice")
	requireZeroAllocs(t, "connect-request forward", func() {
		conn.onRecv(src, wire)
	})
}

// TestNegotiateAllocs pins one brokered candidate negotiation — a
// Negotiate fans out two NegotiateDetails carrying the endpoint pairs —
// at zero allocations per request, like a ConnectRequest.
func TestNegotiateAllocs(t *testing.T) {
	_, conn := allocServer(t, Config{})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeNegotiate, From: "alice", Target: "bob", Nonce: 42,
	}, 0)
	src := clientEP("alice")
	before := conn.sent
	requireZeroAllocs(t, "negotiation broker", func() {
		conn.onRecv(src, wire)
	})
	if conn.sent == before || conn.lastTo != clientEP("bob") {
		t.Fatalf("negotiation not brokered to the target (sent %d, lastTo=%v)", conn.sent-before, conn.lastTo)
	}
}

// TestKeepAliveZeroAlloc pins the §3.6 keep-alive refresh — the
// steady-state background load of every registered client.
func TestKeepAliveZeroAlloc(t *testing.T) {
	_, conn := allocServer(t, Config{})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeKeepAlive, From: "alice",
	}, 0)
	src := clientEP("alice")
	requireZeroAllocs(t, "keep-alive refresh", func() {
		conn.onRecv(src, wire)
	})
}

// TestSimTransportStillCopies: over the simulated transport, which
// queues a datagram until its delivery time, relays forwarded back to
// back from the server's one reused encoding arrive as they were sent.
func TestSimTransportStillCopies(t *testing.T) {
	n := sim.NewNetwork(1)
	core := n.NewSegment("core", "0.0.0.0/0", 5*time.Millisecond)
	sh := host.New(n, "S", host.BSDStyle)
	sh.Attach(core, inet.MustParseAddr("18.181.0.31"))
	s, err := Serve(sh.Transport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	socks := map[string]transport.UDPConn{}
	for _, name := range []string{"alice", "bob"} {
		ep := clientEP(name)
		h := host.New(n, name, host.BSDStyle)
		h.Attach(core, ep.Addr)
		sock, err := h.Transport().BindUDP(ep.Port)
		if err != nil {
			t.Fatal(err)
		}
		socks[name] = sock
		sock.SendTo(s.Endpoint(), proto.Encode(&proto.Message{Type: proto.TypeRegister, From: name}, 0))
	}
	n.Sched.Run()
	var relayed []string
	socks["bob"].OnRecv(func(_ inet.Endpoint, p []byte) {
		if m, err := proto.Decode(p); err == nil && m.Type == proto.TypeRelayed {
			relayed = append(relayed, string(m.Data))
		}
	})
	for seq, data := range []string{"first", "second"} {
		socks["alice"].SendTo(s.Endpoint(), proto.Encode(&proto.Message{
			Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: uint32(seq + 1), Data: []byte(data),
		}, 0))
	}
	n.Sched.Run()
	if len(relayed) != 2 || relayed[0] != "first" || relayed[1] != "second" {
		t.Fatalf("bob received %q: a queued relay was corrupted by a later send", relayed)
	}
}
