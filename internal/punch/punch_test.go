package punch_test

import (
	"errors"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/topo"
)

const serverPort = 1234

// duo is the Figure 5 scenario wired up with a rendezvous server and
// two punching clients.
type duo struct {
	*topo.Canonical
	srv  *rendezvous.Server
	a, b *punch.Client
}

func newDuo(t *testing.T, seed int64, behA, behB nat.Behavior, cfg punch.Config) *duo {
	t.Helper()
	c := topo.NewCanonical(seed, behA, behB)
	srv, err := rendezvous.New(c.S, serverPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := &duo{Canonical: c, srv: srv}
	d.a = punch.NewClient(c.A, "alice", srv.Endpoint(), cfg)
	d.b = punch.NewClient(c.B, "bob", srv.Endpoint(), cfg)
	return d
}

// registerUDP registers both clients over UDP from port 4321 (the
// paper's client port) and runs until complete.
func (d *duo) registerUDP(t *testing.T) {
	t.Helper()
	if err := d.a.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.b.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	d.runUntil(t, 10*time.Second, func() bool {
		return d.a.UDPRegistered() && d.b.UDPRegistered()
	})
}

func (d *duo) registerTCP(t *testing.T) {
	t.Helper()
	if err := d.a.RegisterTCP(4321, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.b.RegisterTCP(4321, nil); err != nil {
		t.Fatal(err)
	}
	d.runUntil(t, 10*time.Second, func() bool {
		return d.a.TCPRegistered() && d.b.TCPRegistered()
	})
}

// runUntil advances the simulation until cond holds or the deadline
// passes; it fails the test on deadline.
func (d *duo) runUntil(t *testing.T, d2 time.Duration, cond func() bool) {
	t.Helper()
	deadline := d.Net.Sched.Now() + d2
	d.Net.Sched.RunWhile(func() bool {
		return !cond() && d.Net.Sched.Now() < deadline
	})
	if !cond() {
		t.Fatalf("condition not reached within %v (now %v)", d2, d.Net.Sched.Now())
	}
}

// punchUDP runs a full UDP punch from alice to bob and returns both
// session objects.
func punchUDP(t *testing.T, d *duo) (sa, sb *punch.UDPSession) {
	t.Helper()
	d.b.InboundUDP = punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sb = s },
	}
	d.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sa = s },
		Failed:      func(peer string, err error) { t.Fatalf("punch failed: %v", err) },
	})
	d.runUntil(t, 30*time.Second, func() bool { return sa != nil && sb != nil })
	return sa, sb
}

func TestUDPPunchDifferentNATs(t *testing.T) {
	// Figure 5: the paper's canonical scenario. Both NATs are
	// well-behaved cones; the clients lock in each other's public
	// endpoints.
	d := newDuo(t, 1, nat.Cone(), nat.Cone(), punch.Config{})
	d.registerUDP(t)

	// Registration observed the paper's endpoints.
	if d.a.PublicUDP() != inet.EP("155.99.25.11", 62000) {
		t.Errorf("A public = %v, want 155.99.25.11:62000", d.a.PublicUDP())
	}
	if d.a.PrivateUDP() != inet.EP("10.0.0.1", 4321) {
		t.Errorf("A private = %v", d.a.PrivateUDP())
	}
	if d.b.PublicUDP() != inet.EP("138.76.29.7", 62000) {
		t.Errorf("B public = %v", d.b.PublicUDP())
	}

	sa, sb := punchUDP(t, d)
	if sa.Via != punch.MethodPublic || sb.Via != punch.MethodPublic {
		t.Errorf("via = %v/%v, want public", sa.Via, sb.Via)
	}
	if sa.Remote != d.b.PublicUDP() {
		t.Errorf("A locked %v, want B's public %v", sa.Remote, d.b.PublicUDP())
	}

	// Data flows both ways.
	var aGot, bGot string
	sa.OnData(func(_ *punch.UDPSession, p []byte) { aGot = string(p) })
	sb.OnData(func(_ *punch.UDPSession, p []byte) { bGot = string(p) })
	sa.Send([]byte("hello from A"))
	sb.Send([]byte("hello from B"))
	d.runUntil(t, 5*time.Second, func() bool { return aGot != "" && bGot != "" })
	if bGot != "hello from A" || aGot != "hello from B" {
		t.Errorf("data: aGot=%q bGot=%q", aGot, bGot)
	}
}

// runUntil advances a bare Internet simulation until cond holds.
func runUntil(t *testing.T, in *topo.Internet, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := in.Net.Sched.Now() + d
	in.Net.Sched.RunWhile(func() bool {
		return !cond() && in.Net.Sched.Now() < deadline
	})
	if !cond() {
		t.Fatalf("condition not reached within %v", d)
	}
}

func TestUDPPunchCommonNAT(t *testing.T) {
	// Figure 4: both clients behind one NAT; the private endpoints
	// answer first (LAN directly, no hairpin needed) and get locked
	// in — "the clients are most likely to select the private
	// endpoints" (§3.3).
	c := topo.NewCommonNAT(1, nat.Cone()) // no hairpin support at all
	srv, err := rendezvous.New(c.S, serverPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClient(c.A, "alice", srv.Endpoint(), punch.Config{})
	b := punch.NewClient(c.B, "bob", srv.Endpoint(), punch.Config{})
	a.RegisterUDP(4321, nil)
	b.RegisterUDP(4321, nil)
	runUntil(t, c.Internet, 10*time.Second, func() bool {
		return a.UDPRegistered() && b.UDPRegistered()
	})

	var sa, sb *punch.UDPSession
	b.InboundUDP = punch.UDPCallbacks{Established: func(s *punch.UDPSession) { sb = s }}
	a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sa = s },
		Failed:      func(_ string, err error) { t.Fatalf("punch failed: %v", err) },
	})
	runUntil(t, c.Internet, 30*time.Second, func() bool { return sa != nil && sb != nil })

	// Even though the NAT lacks hairpin support, the session works —
	// via the private endpoints (§3.3's argument for trying them).
	if sa.Via != punch.MethodPrivate || sb.Via != punch.MethodPrivate {
		t.Errorf("via = %v/%v, want private", sa.Via, sb.Via)
	}
	if sa.Remote != b.PrivateUDP() {
		t.Errorf("A locked %v, want B's private %v", sa.Remote, b.PrivateUDP())
	}
	var bGot string
	sb.OnData(func(_ *punch.UDPSession, p []byte) { bGot = string(p) })
	sa.Send([]byte("lan-direct"))
	runUntil(t, c.Internet, 5*time.Second, func() bool { return bGot != "" })
}

func TestUDPPunchSymmetricFailsThenRelayRescues(t *testing.T) {
	// §5.1: symmetric NAT defeats basic hole punching...
	d := newDuo(t, 1, nat.Symmetric(), nat.Cone(), punch.Config{PunchTimeout: 5 * time.Second})
	d.registerUDP(t)
	var failed error
	d.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(*punch.UDPSession) { t.Fatal("symmetric punch should not succeed") },
		Failed:      func(_ string, err error) { failed = err },
	})
	d.runUntil(t, 30*time.Second, func() bool { return failed != nil })
	if !errors.Is(failed, punch.ErrPunchTimeout) {
		t.Errorf("err = %v", failed)
	}

	// ...but relaying always works (§2.2).
	d2 := newDuo(t, 2, nat.Symmetric(), nat.Cone(), punch.Config{
		PunchTimeout: 5 * time.Second, RelayFallback: true,
	})
	d2.registerUDP(t)
	var sa, sb *punch.UDPSession
	var bGot string
	d2.b.InboundUDP = punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sb = s },
		Data:        func(_ *punch.UDPSession, p []byte) { bGot = string(p) },
	}
	d2.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sa = s },
	})
	d2.runUntil(t, 60*time.Second, func() bool { return sa != nil })
	if sa.Via != punch.MethodRelay {
		t.Fatalf("via = %v, want relay", sa.Via)
	}
	sa.Send([]byte("via relay"))
	d2.runUntil(t, 10*time.Second, func() bool { return bGot != "" })
	if bGot != "via relay" {
		t.Errorf("relayed data = %q", bGot)
	}
	if d2.srv.Stats().RelayedMessages == 0 {
		t.Error("server relayed nothing")
	}
	_ = sb
}

// TestRelayedDataBeforeListenerDeadline: the dialer starts its punch
// deadline when it asks S, the listener when the forwarded request
// arrives, so the dialer falls to the relay first and its first
// relayed datagram races the listener's own deadline. Here the race is
// fixed: the server→listener hop is slow while the request is
// forwarded and fast again when the data comes, so the datagram finds
// the listener still probing. It must conclude the attempt on the
// relay floor and be delivered — an application that sends one
// datagram and waits would otherwise wait forever.
func TestRelayedDataBeforeListenerDeadline(t *testing.T) {
	d := newDuo(t, 4, nat.Symmetric(), nat.Symmetric(), punch.Config{
		PunchTimeout: 2 * time.Second, RelayFallback: true,
	})
	d.registerUDP(t)
	var sb *punch.UDPSession
	var bGot string
	var bGotAt time.Duration
	d.b.InboundUDP = punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sb = s },
		Data: func(_ *punch.UDPSession, p []byte) {
			bGot, bGotAt = string(p), d.Net.Sched.Now()
		},
	}
	d.RealmB.Seg.SetLatency(30 * topo.LANLatency)
	start := d.Net.Sched.Now()
	d.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { s.Send([]byte("only datagram")) },
		Failed:      func(_ string, err error) { t.Fatalf("dial failed: %v", err) },
	})
	d.RunFor(time.Second) // the introduction is over; both sides probe in vain
	d.RealmB.Seg.SetLatency(topo.LANLatency)
	d.runUntil(t, 5*time.Second, func() bool { return bGot != "" })
	if bGot != "only datagram" || sb == nil || sb.Via != punch.MethodRelay {
		t.Fatalf("listener got %q on session %+v, want the datagram on a relay session", bGot, sb)
	}
	listenerDeadline := start + topo.CoreLatency + topo.LANLatency + // alice -> S
		topo.CoreLatency + 30*topo.LANLatency + 2*time.Second // S -> bob, then PunchTimeout
	if bGotAt >= listenerDeadline {
		t.Fatalf("datagram delivered at %v, not before the listener's deadline %v: the order was not forced",
			bGotAt, listenerDeadline)
	}
	if n := d.b.PendingUDPAttempts(); n != 0 {
		t.Errorf("%d attempts still pending on the listener", n)
	}
}

// TestRelaySessionIdleDeath pins the §3.6 death watch on *relayed*
// sessions: when the peer goes away, the idle timer must fire Dead
// exactly as it does for punched sessions (regression: the relay
// fallback path used to skip scheduling the watch, leaving relay
// sessions immortal and their applications re-punch-blind).
func TestRelaySessionIdleDeath(t *testing.T) {
	d := newDuo(t, 3, nat.Symmetric(), nat.Symmetric(), punch.Config{
		PunchTimeout: 5 * time.Second, RelayFallback: true,
		KeepAliveInterval: 5 * time.Second, DeadAfter: 20 * time.Second,
	})
	d.registerUDP(t)
	var sa *punch.UDPSession
	d.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sa = s },
	})
	d.runUntil(t, 30*time.Second, func() bool { return sa != nil })
	if sa.Via != punch.MethodRelay {
		t.Fatalf("via = %v, want relay", sa.Via)
	}
	dead := false
	sa.OnDead(func(*punch.UDPSession) { dead = true })
	// Bob disappears; nothing ever touches alice's relay session
	// again, so the idle watch must declare it dead.
	d.b.Close()
	d.runUntil(t, 2*time.Minute, func() bool { return dead })
	if !dead {
		t.Fatal("relay session never detected peer death (§3.6 watch missing)")
	}
}

func TestUDPPunchOnePeerPublic(t *testing.T) {
	// Connection-reversal topology (Figure 3) for UDP: punching
	// handles it with no special casing — B's probes to A's (public)
	// endpoint simply arrive.
	in := topo.NewInternet(1)
	core := in.CoreRealm()
	s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
	aHost := core.AddHost("A", "155.99.25.80", host.BSDStyle) // public host
	realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
	bHost := realmB.AddHost("B", "10.1.1.3", host.BSDStyle)

	srv, err := rendezvous.New(s, serverPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClient(aHost, "alice", srv.Endpoint(), punch.Config{})
	b := punch.NewClient(bHost, "bob", srv.Endpoint(), punch.Config{})
	a.RegisterUDP(4321, nil)
	b.RegisterUDP(4321, nil)

	var sa, sb *punch.UDPSession
	a.InboundUDP = punch.UDPCallbacks{Established: func(s *punch.UDPSession) { sa = s }}
	registered := func() bool { return a.UDPRegistered() && b.UDPRegistered() }
	deadline := in.Net.Sched.Now() + 10*time.Second
	in.Net.Sched.RunWhile(func() bool { return !registered() && in.Net.Sched.Now() < deadline })
	if !registered() {
		t.Fatal("registration incomplete")
	}
	// A's public and private endpoints coincide: not behind a NAT
	// (§3.1: "if the client is not behind a NAT, its private and
	// public endpoints should be identical").
	if a.PublicUDP() != a.PrivateUDP() {
		t.Errorf("public %v != private %v for un-NATed host", a.PublicUDP(), a.PrivateUDP())
	}
	b.ConnectUDP("alice", punch.UDPCallbacks{Established: func(s *punch.UDPSession) { sb = s }})
	deadline = in.Net.Sched.Now() + 30*time.Second
	in.Net.Sched.RunWhile(func() bool { return (sa == nil || sb == nil) && in.Net.Sched.Now() < deadline })
	if sa == nil || sb == nil {
		t.Fatal("punch with public peer failed")
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	d := newDuo(t, 1, nat.Cone(), nat.Cone(), punch.Config{})
	d.registerUDP(t)
	var failed error
	d.a.ConnectUDP("nobody", punch.UDPCallbacks{
		Failed: func(_ string, err error) { failed = err },
	})
	d.runUntil(t, 10*time.Second, func() bool { return failed != nil })
	if !errors.Is(failed, punch.ErrPeerUnknown) {
		t.Errorf("err = %v, want ErrPeerUnknown", failed)
	}
}
