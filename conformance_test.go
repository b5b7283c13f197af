package natpunch

// The differential conformance suite: the same punch→ICE→relay
// scenarios driven once over the deterministic sim transport and once
// over real UDP sockets on loopback must land in the same outcome
// class (direct vs relay) and carry application data both ways —
// pinning that the unified engine really is backend-agnostic.

import (
	"net"
	"testing"
	"time"

	"natpunch/internal/proto"
	"natpunch/realudp"
	"natpunch/rendezvousapi"
	"natpunch/simnet"
	"natpunch/transport"
)

// requireLoopbackUDP probes — with a short deadline so a broken
// environment cannot hang the suite — whether UDP over 127.0.0.1
// actually delivers datagrams; restricted sandboxes sometimes permit
// binding but silently drop loopback traffic.
func requireLoopbackUDP(t testing.TB) {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("UDP loopback unavailable: %v", err)
	}
	defer c.Close()
	if _, err := c.WriteToUDP([]byte("probe"), c.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Skipf("UDP loopback send failed: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, _, err := c.ReadFromUDP(buf); err != nil {
		t.Skipf("UDP loopback does not deliver datagrams: %v", err)
	}
}

// newLoopTransport builds a loopback realudp transport torn down with
// the test.
func newLoopTransport(t *testing.T) (*realudp.Transport, error) {
	t.Helper()
	tr, err := realudp.New("127.0.0.1:0")
	if err == nil {
		t.Cleanup(func() { tr.Close() })
	}
	return tr, err
}

// serveLoop starts a rendezvous server on tr.
func serveLoop(t *testing.T, tr *realudp.Transport) (*rendezvousapi.Server, error) {
	t.Helper()
	return rendezvousapi.Serve(tr, 0)
}

// conformanceOpts is the option set both backends run under.
func conformanceOpts() []Option {
	return []Option{
		WithRelayFallback(),
		WithPunchTimeout(1500 * time.Millisecond),
	}
}

// makeSimPair builds the scenario over the simulator: blockDirect
// models unpunchable paths with symmetric NATs on both sides.
func makeSimPair(t *testing.T, blockDirect bool) (*Dialer, *Dialer) {
	natA, natB := simnet.Cone(), simnet.Cone()
	if blockDirect {
		natA, natB = simnet.Symmetric(), simnet.Symmetric()
	}
	alice, bob, _, _ := simPair(t, natA, natB, conformanceOpts()...)
	return alice, bob
}

// makeRealPair builds the scenario over real loopback sockets:
// blockDirect models unpunchable paths by dropping all punch/check
// probes and acks at bob, in front of the engine's own dispatch.
// Explicit opts replace the default conformance options.
func makeRealPair(t *testing.T, blockDirect bool, opts ...Option) (*Dialer, *Dialer) {
	return makeRealPairTr(t, blockDirect, nil, opts...)
}

// makeRealPairTr is makeRealPair with explicit transport options —
// the conformance suite uses it to force every socket onto the
// portable per-datagram loop that non-Linux builds run.
func makeRealPairTr(t *testing.T, blockDirect bool, trOpts []realudp.Option, opts ...Option) (*Dialer, *Dialer) {
	t.Helper()
	requireLoopbackUDP(t)
	if len(opts) == 0 {
		opts = conformanceOpts()
	}
	serverTr, err := realudp.New("127.0.0.1:0", trOpts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serverTr.Close() })
	srv, err := rendezvousapi.Serve(serverTr, 0)
	if err != nil {
		t.Fatal(err)
	}
	server := srv.Endpoint() // bound to 127.0.0.1, so directly dialable

	open := func(name string) *Dialer {
		tr, err := realudp.New("127.0.0.1:0", trOpts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		d, err := Open(tr, name, server, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	alice, bob := open("alice"), open("bob")
	if blockDirect {
		dropProbes(bob)
	}
	return alice, bob
}

// dropProbes installs a fault-injection filter at d that consumes all
// punch/check probes and acks before the engine sees them, chaining
// to the previously installed (agent) interceptor for everything
// else. Candidate negotiation still happens — every check just
// fails, which is what forces the §2.2 relay floor.
func dropProbes(d *Dialer) {
	d.tr.Invoke(func() {
		prev := d.client.UDPIntercept()
		d.client.SetUDPIntercept(func(from transport.Endpoint, m *proto.Message) bool {
			if m.Type == proto.TypePunch || m.Type == proto.TypePunchAck {
				return true
			}
			return prev != nil && prev(from, m)
		})
	})
}

// runScenario dials bob from alice, exchanges one echo round trip,
// and returns the established path class from both perspectives.
func runScenario(t *testing.T, alice, bob *Dialer) (dialPath, acceptPath string) {
	t.Helper()
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan string, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
		acceptCh <- conn.Path()
		buf := make([]byte, 2048)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			conn.Write(append([]byte("echo:"), buf[:n]...))
		}
	}()

	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("echo read over %s path: %v", conn.Path(), err)
	}
	if string(buf[:n]) != "echo:ping" {
		t.Fatalf("echo payload = %q", buf[:n])
	}
	select {
	case p := <-acceptCh:
		return conn.Path(), p
	case <-time.After(15 * time.Second):
		t.Fatal("bob never surfaced the inbound session")
		return "", ""
	}
}

// classOf reduces a path to its conformance outcome class.
func classOf(path string) string {
	if path == "relay" {
		return "relay"
	}
	return "direct"
}

// makeSimFedPair splits the rendezvous tier in two inside one
// simulated world: alice homes on S1, bob on S2, servers federated.
func makeSimFedPair(t *testing.T, blockDirect bool) (*Dialer, *Dialer) {
	t.Helper()
	natA, natB := simnet.Cone(), simnet.Cone()
	if blockDirect {
		natA, natB = simnet.Symmetric(), simnet.Symmetric()
	}
	w := simnet.NewWorld(42)
	t.Cleanup(w.Close)
	core := w.Core()
	s1, err := rendezvousapi.Serve(core.AddHost("S1", "18.181.0.31").Transport(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rendezvousapi.Serve(core.AddHost("S2", "18.181.0.32").Transport(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	s1.Join(s2.Endpoint())
	hostA := core.AddSite("NAT-A", natA, "155.99.25.11", "10.0.0.0/24").AddHost("A", "10.0.0.1")
	hostB := core.AddSite("NAT-B", natB, "138.76.29.7", "10.1.1.0/24").AddHost("B", "10.1.1.3")
	alice, err := Open(hostA.Transport(), "alice", s1.Endpoint(), conformanceOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alice.Close() })
	bob, err := Open(hostB.Transport(), "bob", s2.Endpoint(), conformanceOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bob.Close() })
	return alice, bob
}

// makeRealFedPair is makeSimFedPair over loopback real sockets.
func makeRealFedPair(t *testing.T, blockDirect bool) (*Dialer, *Dialer) {
	t.Helper()
	requireLoopbackUDP(t)
	serve := func(peers ...transport.Endpoint) *rendezvousapi.Server {
		tr, err := realudp.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		srv, err := rendezvousapi.Serve(tr, 0, rendezvousapi.WithPeers(peers...))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	s1 := serve()
	s2 := serve(s1.Endpoint())
	open := func(name string, server transport.Endpoint) *Dialer {
		tr, err := realudp.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		d, err := Open(tr, name, server, conformanceOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	alice, bob := open("alice", s1.Endpoint()), open("bob", s2.Endpoint())
	// Registrations replicate to the other server asynchronously: a
	// dial issued before the callee's record crossed the federation
	// link is refused as an unknown peer.
	for deadline := time.Now().Add(5 * time.Second); !(s1.Registered("bob") && s2.Registered("alice")); {
		if time.Now().After(deadline) {
			t.Fatal("registrations never replicated across the federation link")
		}
		time.Sleep(time.Millisecond)
	}
	if blockDirect {
		dropProbes(alice)
		dropProbes(bob)
	}
	return alice, bob
}

// TestConformanceCrossServer pins the federated deployment across
// backends: a cross-server dial must land in the same outcome class
// on the simulator and on loopback real UDP — and in the same class
// as the single-server scenarios above.
func TestConformanceCrossServer(t *testing.T) {
	for _, tc := range []struct {
		name        string
		blockDirect bool
		want        string
	}{
		{"direct", false, "direct"},
		{"relay-floor", true, "relay"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simA, simB := makeSimFedPair(t, tc.blockDirect)
			simDial, simAccept := runScenario(t, simA, simB)

			realA, realB := makeRealFedPair(t, tc.blockDirect)
			realDial, realAccept := runScenario(t, realA, realB)

			for _, c := range []struct{ name, sim, real string }{
				{"dial side", simDial, realDial},
				{"accept side", simAccept, realAccept},
			} {
				if classOf(c.sim) != tc.want || classOf(c.real) != tc.want {
					t.Errorf("%s: cross-server outcome classes diverge or are not %s: sim=%s real=%s",
						c.name, tc.want, c.sim, c.real)
				}
			}
		})
	}
}

func TestConformanceDirectClass(t *testing.T) {
	simA, simB := makeSimPair(t, false)
	simDial, simAccept := runScenario(t, simA, simB)

	realA, realB := makeRealPair(t, false)
	realDial, realAccept := runScenario(t, realA, realB)

	for _, c := range []struct{ name, sim, real string }{
		{"dial side", simDial, realDial},
		{"accept side", simAccept, realAccept},
	} {
		if classOf(c.sim) != "direct" || classOf(c.real) != "direct" {
			t.Errorf("%s: outcome classes diverge or are not direct: sim=%s real=%s", c.name, c.sim, c.real)
		}
	}
}

// TestConformancePortableFallback re-runs the direct-class scenario
// with WithBatching(false) on every real transport, pinning that the
// portable per-datagram fallback — the data plane every non-Linux
// build gets — lands in the same outcome class as the simulator and,
// by extension, as the batched Linux fast path the other conformance
// tests exercise.
func TestConformancePortableFallback(t *testing.T) {
	simA, simB := makeSimPair(t, false)
	simDial, simAccept := runScenario(t, simA, simB)

	realA, realB := makeRealPairTr(t, false, []realudp.Option{realudp.WithBatching(false)})
	realDial, realAccept := runScenario(t, realA, realB)

	for _, c := range []struct{ name, sim, real string }{
		{"dial side", simDial, realDial},
		{"accept side", simAccept, realAccept},
	} {
		if classOf(c.sim) != "direct" || classOf(c.real) != "direct" {
			t.Errorf("%s: outcome classes diverge or are not direct: sim=%s real=%s", c.name, c.sim, c.real)
		}
	}
}

func TestConformanceRelayFloorClass(t *testing.T) {
	simA, simB := makeSimPair(t, true)
	simDial, simAccept := runScenario(t, simA, simB)

	realA, realB := makeRealPair(t, true)
	realDial, realAccept := runScenario(t, realA, realB)

	for _, c := range []struct{ name, sim, real string }{
		{"dial side", simDial, realDial},
		{"accept side", simAccept, realAccept},
	} {
		if classOf(c.sim) != "relay" || classOf(c.real) != "relay" {
			t.Errorf("%s: outcome classes diverge or are not relay: sim=%s real=%s", c.name, c.sim, c.real)
		}
	}
}

// runRelayFirstUpgrade dials bob relay-first and keeps echo traffic
// flowing while the background punch upgrades the live session,
// returning the final path from both perspectives. Every echo round
// must succeed — before, during, and after the cutover.
func runRelayFirstUpgrade(t *testing.T, alice, bob *Dialer) (dialPath, acceptPath string) {
	t.Helper()
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan *Conn, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
		acceptCh <- conn
		buf := make([]byte, 2048)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			conn.Write(append([]byte("echo:"), buf[:n]...))
		}
	}()

	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	var bconn *Conn
	select {
	case bconn = <-acceptCh:
	case <-time.After(15 * time.Second):
		t.Fatal("bob never surfaced the relay-first session")
	}

	buf := make([]byte, 256)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatalf("write on %s path: %v", conn.Path(), err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("echo broke mid-upgrade on %s path: %v", conn.Path(), err)
		}
		if string(buf[:n]) != "echo:ping" {
			t.Fatalf("echo payload = %q", buf[:n])
		}
		if classOf(conn.Path()) == "direct" && classOf(bconn.Path()) == "direct" {
			return conn.Path(), bconn.Path()
		}
		if !time.Now().Before(deadline) {
			return conn.Path(), bconn.Path()
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConformanceRelayFirstUpgrade: a relay-first dial on punchable
// peers must converge on a direct path class — identically over the
// simulator and over real loopback sockets — while the session keeps
// carrying traffic throughout. The subtest keeps the name "ice": the
// candidate negotiation is the one dial path.
func TestConformanceRelayFirstUpgrade(t *testing.T) {
	t.Run("ice", func(t *testing.T) {
		opts := []Option{WithRelayFirst(), WithPunchTimeout(1500 * time.Millisecond)}

		simA, simB, _, _ := simPair(t, simnet.Cone(), simnet.Cone(), opts...)
		simDial, simAccept := runRelayFirstUpgrade(t, simA, simB)

		realA, realB := makeRealPair(t, false, opts...)
		realDial, realAccept := runRelayFirstUpgrade(t, realA, realB)

		for _, c := range []struct{ name, sim, real string }{
			{"dial side", simDial, realDial},
			{"accept side", simAccept, realAccept},
		} {
			if classOf(c.sim) != "direct" || classOf(c.real) != "direct" {
				t.Errorf("%s: relay-first session never upgraded to direct: sim=%s real=%s",
					c.name, c.sim, c.real)
			}
		}
	})
}

// TestRealSocketInboxSurvivesDecoderReuse: over real sockets the
// engine decodes every datagram into one reused message, so a payload
// waiting in a Conn's read queue is the Conn's own copy — the
// datagrams that arrive behind it leave it as it was sent.
func TestRealSocketInboxSurvivesDecoderReuse(t *testing.T) {
	alice, bob := makeRealPair(t, false)
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	go func() {
		if c, err := ln.AcceptConn(); err == nil {
			accepted <- c
		}
	}()
	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := []string{"the first, queued longest", "second", "and a third of yet another length"}
	for _, p := range want {
		if _, err := conn.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	var peer *Conn
	select {
	case peer = <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("bob never accepted")
	}
	defer peer.Close()
	queued := func() int {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return len(peer.inbox)
	}
	for deadline := time.Now().Add(10 * time.Second); queued() < len(want); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d datagrams queued", queued(), len(want))
		}
		time.Sleep(time.Millisecond)
	}
	buf := make([]byte, 256)
	for i, p := range want {
		n, err := peer.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != p {
			t.Errorf("datagram %d read %q, want %q", i+1, buf[:n], p)
		}
	}
}
