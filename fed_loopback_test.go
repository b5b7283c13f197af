package natpunch

// Federated loopback smoke: the multi-server deployment shape on real
// UDP sockets — two federated rendezvous servers, a cross-server
// negotiated punch, the relay-only fallback through a standalone
// relayapi host, and mid-run home-server loss with pool failover.
// These are the real-socket halves of the engine-level pins in
// internal/rendezvous and internal/punch.

import (
	"errors"
	"testing"
	"time"

	"natpunch/realudp"
	"natpunch/relayapi"
	"natpunch/rendezvousapi"
	"natpunch/transport"
)

// fedServers starts n federated rendezvous servers on loopback.
func fedServers(t *testing.T, n int) ([]*rendezvousapi.Server, []transport.Endpoint) {
	t.Helper()
	requireLoopbackUDP(t)
	var srvs []*rendezvousapi.Server
	var eps []transport.Endpoint
	for i := 0; i < n; i++ {
		tr, err := realudp.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		srv, err := rendezvousapi.Serve(tr, 0, rendezvousapi.WithPeers(eps...))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
		eps = append(eps, srv.Endpoint())
	}
	return srvs, eps
}

// openLoop opens a named endpoint over its own loopback transport.
func openLoop(t *testing.T, name string, server transport.Endpoint, opts ...Option) *Dialer {
	t.Helper()
	tr, err := realudp.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	d, err := Open(tr, name, server, opts...)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// awaitReplicated waits until every server knows every name. Open
// returns on the home server's ack, which that server sends ahead of
// the record it replicates to its peers: a dial issued at once can
// reach the other server first.
func awaitReplicated(t *testing.T, srvs []*rendezvousapi.Server, names ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, srv := range srvs {
		for _, name := range names {
			for !srv.Registered(name) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never replicated to %s", name, srv.Endpoint())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestFederatedLoopbackCrossServerICE: alice homed on S1, bob on S2,
// candidate negotiation brokered across the federation link, direct
// outcome class, data both ways.
func TestFederatedLoopbackCrossServerICE(t *testing.T) {
	srvs, eps := fedServers(t, 2)
	alice := openLoop(t, "alice", eps[0], WithRelayFallback(), WithPunchTimeout(2*time.Second))
	bob := openLoop(t, "bob", eps[1], WithRelayFallback(), WithPunchTimeout(2*time.Second))
	awaitReplicated(t, srvs, "alice", "bob")

	dialPath, acceptPath := runScenario(t, alice, bob)
	if classOf(dialPath) != "direct" || classOf(acceptPath) != "direct" {
		t.Errorf("cross-server loopback punch landed %s/%s; want direct/direct", dialPath, acceptPath)
	}
	if srvs[1].Stats().FedForwards == 0 && srvs[0].Stats().FedForwards == 0 {
		t.Error("no federation forwards: the negotiation never crossed the link")
	}
}

// TestFederatedLoopbackRelayOnlyFallback: with probes dropped, the
// §2.2 floor engages through a standalone relay-only server and the
// payload load lands there — not on the rendezvous tier.
func TestFederatedLoopbackRelayOnlyFallback(t *testing.T) {
	srvs, eps := fedServers(t, 2)
	relayTr, err := realudp.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relayTr.Close() })
	relay, err := relayapi.Serve(relayTr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Close)

	opts := []Option{
		WithRelayServers(relay.Endpoint()),
		WithPunchTimeout(1500 * time.Millisecond),
	}
	alice := openLoop(t, "alice", eps[0], opts...)
	bob := openLoop(t, "bob", eps[1], opts...)
	awaitReplicated(t, srvs, "alice", "bob")
	dropProbes(alice)
	dropProbes(bob)

	dialPath, acceptPath := runScenario(t, alice, bob)
	if dialPath != "relay" || acceptPath != "relay" {
		t.Fatalf("paths %s/%s; want relay/relay", dialPath, acceptPath)
	}
	st := relay.Stats()
	if st.RelayedMessages == 0 {
		t.Error("standalone relay carried no payload")
	}
	for i, srv := range srvs {
		if rs := srv.Stats(); rs.RelayedMessages != 0 {
			t.Errorf("rendezvous server %d carried %d relayed messages; relay-only tier should take that load", i, rs.RelayedMessages)
		}
	}
}

// TestFederatedLoopbackFailover: kill the dialer's home server
// mid-session. The established session keeps carrying data (via the
// standalone relay, whose availability is decoupled from the
// brokering tier), the client re-homes to the surviving pool member,
// and new dials succeed.
func TestFederatedLoopbackFailover(t *testing.T) {
	srvs, eps := fedServers(t, 2)
	relayTr, err := realudp.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relayTr.Close() })
	relay, err := relayapi.Serve(relayTr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Close)

	// Fast §3.6 clocks so the whole failover drama fits in seconds:
	// keep-alives every 100ms, failover after ~300ms of silence, idle
	// death only after 3s.
	opts := []Option{
		WithRelayServers(relay.Endpoint()),
		Servers(eps...),
		WithKeepAlive(100*time.Millisecond, 3*time.Second),
		WithPunchTimeout(800 * time.Millisecond),
	}
	alice := openLoop(t, "alice", transport.Endpoint{}, opts...)
	bob := openLoop(t, "bob", transport.Endpoint{}, opts...)
	awaitReplicated(t, srvs, "alice", "bob")
	dropProbes(alice) // force the relay path: it must survive the kill
	dropProbes(bob)

	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
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
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Path() != "relay" {
		t.Fatalf("path %s; want relay", conn.Path())
	}
	echo := func(msg string) error {
		if _, err := conn.Write([]byte(msg)); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 256)
		n, err := conn.Read(buf)
		if err != nil {
			return err
		}
		if string(buf[:n]) != "echo:"+msg {
			return errors.New("payload mismatch: " + string(buf[:n]))
		}
		return nil
	}
	if err := echo("before"); err != nil {
		t.Fatalf("pre-kill echo: %v", err)
	}

	// Kill alice's home server (bob's may be the same or the other).
	home := alice.ServerEndpoint()
	for i, ep := range eps {
		if ep == home {
			srvs[i].Close()
		}
	}

	// The established relay session must keep working: the standalone
	// relay is alive and both ends keep their registrations there.
	if err := echo("during"); err != nil {
		t.Fatalf("echo while home server dead: %v", err)
	}

	// Alice must re-home to the survivor...
	deadline := time.Now().Add(15 * time.Second)
	for alice.ServerEndpoint() == home {
		if time.Now().After(deadline) {
			t.Fatal("alice never failed over")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if alice.Failovers() == 0 {
		t.Error("failover not counted")
	}
	// ...and the session is still alive afterwards.
	if err := echo("after"); err != nil {
		t.Fatalf("post-failover echo: %v", err)
	}

	// New dials work through the survivor once bob is visible there
	// (bob re-homes on his own keep-alive clock if he was on the dead
	// server).
	carl := openLoop(t, "carl", alice.ServerEndpoint(),
		WithRelayFallback(), WithPunchTimeout(800*time.Millisecond),
		WithKeepAlive(100*time.Millisecond, 3*time.Second))
	lnC, err := carl.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := lnC.AcceptConn()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	var dialErr error
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var c2 *Conn
		c2, dialErr = alice.Dial("carl")
		if dialErr == nil {
			c2.Close()
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if dialErr != nil {
		t.Fatalf("post-failover dial never succeeded: %v", dialErr)
	}
}

// TestWithAdvertiseOverridesWildcardEndpoint pins the wildcard-bind
// bugfix: a server bound to 0.0.0.0 used to report that unroutable
// address verbatim from Endpoint(); WithAdvertise makes it report the
// operator-routable endpoint instead (what cmd/rendezvous prints and
// federation peers are given), while BoundEndpoint-style transport
// introspection still sees the real bind.
func TestWithAdvertiseOverridesWildcardEndpoint(t *testing.T) {
	requireLoopbackUDP(t)
	adv := transport.MustParseEndpoint("203.0.113.7:7000")

	tr, err := realudp.New("0.0.0.0:0")
	if err != nil {
		t.Skipf("wildcard bind unavailable: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	srv, err := rendezvousapi.Serve(tr, 0, rendezvousapi.WithAdvertise(adv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if got := srv.Endpoint(); got != adv {
		t.Errorf("Endpoint() = %v, want the advertised %v", got, adv)
	}

	// Without WithAdvertise the wildcard bind reports 0.0.0.0 — the
	// documented sharp edge operators must advertise around.
	tr2, err := realudp.New("0.0.0.0:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr2.Close() })
	srv2, err := rendezvousapi.Serve(tr2, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	if got := srv2.Endpoint(); got.Addr != 0 {
		t.Errorf("wildcard bind reported %v; expected the 0.0.0.0 bind address", got)
	}

	// relayapi shares the option.
	tr3, err := realudp.New("0.0.0.0:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr3.Close() })
	rsrv, err := relayapi.Serve(tr3, 0, relayapi.WithAdvertise(adv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rsrv.Close)
	if got := rsrv.Endpoint(); got != adv {
		t.Errorf("relayapi Endpoint() = %v, want the advertised %v", got, adv)
	}
}

// TestDialUnknownPeerFailsFast pins the public error: dialing a name
// with no live registration fails with ErrUnknownPeer on the server's
// reply, not by punch timeout.
func TestDialUnknownPeerFailsFast(t *testing.T) {
	_, eps := fedServers(t, 1)
	alice := openLoop(t, "alice", eps[0], WithPunchTimeout(30*time.Second))
	start := time.Now()
	_, err := alice.Dial("ghost")
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("unknown-peer dial took %v; want the fast error path", elapsed)
	}
}
