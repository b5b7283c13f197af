package punch_test

import (
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/topo"
)

// punchTCP runs a full parallel TCP punch from alice to bob.
func punchTCP(t *testing.T, d *duo) (sa, sb *punch.TCPSession) {
	t.Helper()
	d.b.InboundTCP = punch.TCPCallbacks{
		Established: func(s *punch.TCPSession) { sb = s },
	}
	d.a.ConnectTCP("bob", punch.TCPCallbacks{
		Established: func(s *punch.TCPSession) { sa = s },
		Failed:      func(peer string, err error) { t.Fatalf("tcp punch failed: %v", err) },
	})
	d.runUntil(t, 60*time.Second, func() bool { return sa != nil && sb != nil })
	return sa, sb
}

func exchange(t *testing.T, d *duo, sa, sb *punch.TCPSession) {
	t.Helper()
	var aGot, bGot string
	sa.OnData(func(_ *punch.TCPSession, p []byte) { aGot = string(p) })
	sb.OnData(func(_ *punch.TCPSession, p []byte) { bGot = string(p) })
	if err := sa.Send([]byte("from A")); err != nil {
		t.Fatal(err)
	}
	if err := sb.Send([]byte("from B")); err != nil {
		t.Fatal(err)
	}
	d.runUntil(t, 10*time.Second, func() bool { return aGot != "" && bGot != "" })
	if bGot != "from A" || aGot != "from B" {
		t.Fatalf("aGot=%q bGot=%q", aGot, bGot)
	}
}

func TestTCPPunchDifferentNATs(t *testing.T) {
	// §4.2 across two well-behaved (SYN-dropping) cone NATs.
	d := newDuo(t, 1, nat.Cone(), nat.Cone(), punch.Config{})
	d.registerTCP(t)
	if d.a.PublicTCP().Addr != d.NATA.PublicAddr() {
		t.Errorf("A public TCP = %v", d.a.PublicTCP())
	}
	sa, sb := punchTCP(t, d)
	if sa.Via != punch.MethodPublic || sb.Via != punch.MethodPublic {
		t.Errorf("via = %v/%v", sa.Via, sb.Via)
	}
	exchange(t, d, sa, sb)
	// Orderly teardown.
	sa.Close()
	d.runUntil(t, 30*time.Second, func() bool { return sb.Conn.State().String() != "ESTABLISHED" })
}

func TestTCPPunchThroughRSTNATs(t *testing.T) {
	// §5.2: NATs that reject unsolicited SYNs with RSTs make punching
	// slower ("transient errors") but not fatal — the clients retry.
	d := newDuo(t, 1, nat.RSTCone(), nat.RSTCone(), punch.Config{
		PunchTimeout: 30 * time.Second,
	})
	d.registerTCP(t)
	sa, sb := punchTCP(t, d)
	exchange(t, d, sa, sb)
}

func TestTCPPunchBothLinuxFlavor(t *testing.T) {
	// §4.3/§4.4 second behavior on both ends: with symmetric timing
	// the SYNs cross, both connects fail with address-in-use, and both
	// applications receive working streams via accept(). The topo
	// builder uses BSD hosts, so build a dedicated topology with
	// Linux-flavored clients.
	in := topo.NewInternet(3)
	core := in.CoreRealm()
	s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
	realmA := core.AddSite("NAT-A", nat.Cone(), "155.99.25.11", "10.0.0.0/24")
	realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
	hostA := realmA.AddHost("A", "10.0.0.1", host.LinuxStyle)
	hostB := realmB.AddHost("B", "10.1.1.3", host.LinuxStyle)
	srv2, err := rendezvous.NewOver(s.Transport(), serverPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClientOver(hostA.Transport(), "alice", srv2.Endpoint(), punch.Config{})
	b := punch.NewClientOver(hostB.Transport(), "bob", srv2.Endpoint(), punch.Config{})
	a.RegisterTCP(4321, nil)
	b.RegisterTCP(4321, nil)
	runUntil(t, in, 10*time.Second, func() bool { return a.TCPRegistered() && b.TCPRegistered() })

	var sa, sb *punch.TCPSession
	b.InboundTCP = punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sb = s }}
	a.ConnectTCP("bob", punch.TCPCallbacks{
		Established: func(s *punch.TCPSession) { sa = s },
	})
	runUntil(t, in, 60*time.Second, func() bool { return sa != nil && sb != nil })

	// The paper: "the application running on each client nevertheless
	// receives a new, working peer-to-peer TCP stream socket via
	// accept()".
	if !sa.Accepted || !sb.Accepted {
		t.Errorf("accepted = %v/%v, want true/true on Linux flavor", sa.Accepted, sb.Accepted)
	}
	var bGot string
	sb.OnData(func(_ *punch.TCPSession, p []byte) { bGot = string(p) })
	sa.Send([]byte("magic"))
	runUntil(t, in, 10*time.Second, func() bool { return bGot == "magic" })
}

func TestTCPSequentialPunch(t *testing.T) {
	// §4.5: the NatTrav-style sequential procedure.
	d := newDuo(t, 1, nat.Cone(), nat.Cone(), punch.Config{
		PunchTimeout: 30 * time.Second,
	})
	d.registerTCP(t)
	var sa, sb *punch.TCPSession
	d.b.InboundTCP = punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sb = s }}
	d.a.ConnectTCPSequential("bob", punch.TCPCallbacks{
		Established: func(s *punch.TCPSession) { sa = s },
		Failed:      func(_ string, err error) { t.Fatalf("sequential failed: %v", err) },
	})
	d.runUntil(t, 60*time.Second, func() bool { return sa != nil && sb != nil })
	// A connected, B accepted — the asymmetric outcome of §4.5.
	if sa.Accepted || !sb.Accepted {
		t.Errorf("accepted = %v/%v, want false/true", sa.Accepted, sb.Accepted)
	}
	exchange(t, d, sa, sb)
}

func TestConnectionReversalTCP(t *testing.T) {
	// Figure 3: A public, B behind NAT. A cannot dial B; A requests a
	// reversal and B connects back.
	in := topo.NewInternet(1)
	core := in.CoreRealm()
	s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
	hostA := core.AddHost("A", "155.99.25.80", host.BSDStyle)
	realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
	hostB := realmB.AddHost("B", "10.1.1.3", host.BSDStyle)
	srv, err := rendezvous.NewOver(s.Transport(), serverPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClientOver(hostA.Transport(), "alice", srv.Endpoint(), punch.Config{})
	b := punch.NewClientOver(hostB.Transport(), "bob", srv.Endpoint(), punch.Config{})
	a.RegisterTCP(4321, nil)
	b.RegisterTCP(4321, nil)
	runUntil(t, in, 10*time.Second, func() bool { return a.TCPRegistered() && b.TCPRegistered() })

	var sa, sb *punch.TCPSession
	b.InboundTCP = punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sb = s }}
	a.RequestReversal("bob", punch.TCPCallbacks{
		Established: func(s *punch.TCPSession) { sa = s },
	})
	runUntil(t, in, 30*time.Second, func() bool { return sa != nil && sb != nil })
	// A's stream arrived via accept (B dialed back); B's via connect.
	if !sa.Accepted || sb.Accepted {
		t.Errorf("accepted = %v/%v, want true/false", sa.Accepted, sb.Accepted)
	}
	if srv.Stats().ReversalRequests != 1 {
		t.Errorf("server reversal count = %d", srv.Stats().ReversalRequests)
	}
}

func TestTCPSymmetricFallsBackToRelay(t *testing.T) {
	d := newDuo(t, 1, nat.Symmetric(), nat.Symmetric(), punch.Config{
		PunchTimeout: 5 * time.Second, RelayFallback: true,
	})
	d.registerTCP(t)
	var sa *punch.TCPSession
	var bGot string
	d.b.InboundTCP = punch.TCPCallbacks{
		Data: func(_ *punch.TCPSession, p []byte) { bGot = string(p) },
	}
	d.a.ConnectTCP("bob", punch.TCPCallbacks{
		Established: func(s *punch.TCPSession) { sa = s },
	})
	d.runUntil(t, 60*time.Second, func() bool { return sa != nil })
	if sa.Via != punch.MethodRelay {
		t.Fatalf("via = %v, want relay", sa.Via)
	}
	sa.Send([]byte("tcp-relay"))
	d.runUntil(t, 10*time.Second, func() bool { return bGot != "" })
	if bGot != "tcp-relay" {
		t.Errorf("relayed = %q", bGot)
	}
}

func TestMultiLevelNATRequiresHairpin(t *testing.T) {
	// Figure 6. With hairpin at NAT C the punch succeeds via the
	// clients' global public endpoints; without it, punching fails
	// (§3.5: "the clients have no choice but to use their global
	// public addresses ... and rely on NAT C providing hairpin
	// translation").
	run := func(hairpin bool) (ok bool, via punch.Method) {
		behC := nat.Cone()
		behC.HairpinUDP = hairpin
		m := topo.NewMultiLevel(1, behC, nat.Cone(), nat.Cone())
		srv, err := rendezvous.NewOver(m.S.Transport(), serverPort, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := punch.NewClientOver(m.A.Transport(), "alice", srv.Endpoint(), punch.Config{PunchTimeout: 5 * time.Second})
		b := punch.NewClientOver(m.B.Transport(), "bob", srv.Endpoint(), punch.Config{PunchTimeout: 5 * time.Second})
		a.RegisterUDP(4321, nil)
		b.RegisterUDP(4321, nil)
		runUntil(t, m.Internet, 10*time.Second, func() bool {
			return a.UDPRegistered() && b.UDPRegistered()
		})
		var sa *punch.UDPSession
		failed := false
		b.InboundUDP = punch.UDPCallbacks{}
		a.ConnectUDP("bob", punch.UDPCallbacks{
			Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s },
			Failed:      func(string, error) { failed = true },
		})
		deadline := m.Net.Sched.Now() + 30*time.Second
		m.Net.Sched.RunWhile(func() bool {
			return sa == nil && !failed && m.Net.Sched.Now() < deadline
		})
		if sa == nil {
			return false, punch.MethodNone
		}
		return true, sa.Via
	}

	if ok, _ := run(false); ok {
		t.Error("multi-level punch succeeded without hairpin at NAT C")
	}
	ok, via := run(true)
	if !ok {
		t.Fatal("multi-level punch failed despite hairpin at NAT C")
	}
	if via != punch.MethodPublic {
		t.Errorf("via = %v, want public (global endpoints through hairpin)", via)
	}
}

func TestKeepAliveSurvivesShortNATTimeout(t *testing.T) {
	// §3.6: a 20-second NAT with 15-second keep-alives keeps the
	// session alive for minutes.
	behA := nat.Cone()
	behA.UDPTimeout = 20 * time.Second
	behB := nat.Cone()
	behB.UDPTimeout = 20 * time.Second
	d := newDuo(t, 1, behA, behB, punch.Config{KeepAliveInterval: 8 * time.Second})
	d.registerUDP(t)
	sa, sb := punchUDP(t, d)

	var got string
	sb.OnData(func(_ *punch.UDPSession, p []byte) { got = string(p) })
	d.RunFor(2 * time.Minute) // many NAT timeouts' worth of idle time
	sa.Send([]byte("still-alive"))
	d.runUntil(t, 5*time.Second, func() bool { return got == "still-alive" })
}

func TestDeadSessionDetectionAndRepunch(t *testing.T) {
	// §3.6: "detecting when a UDP session no longer works, and
	// re-running the original hole punching procedure on demand."
	behA := nat.Cone()
	behA.UDPTimeout = 20 * time.Second
	d := newDuo(t, 1, behA, nat.Cone(), punch.Config{
		// Keep-alives too slow to preserve the mapping.
		KeepAliveInterval: 45 * time.Second,
		DeadAfter:         90 * time.Second,
	})
	d.registerUDP(t)
	sa, _ := punchUDP(t, d)
	dead := false
	sa.OnDead(func(*punch.UDPSession) { dead = true })
	d.runUntil(t, 10*time.Minute, func() bool { return dead })

	// Re-punch on demand succeeds.
	var sa2 *punch.UDPSession
	d.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { sa2 = s },
	})
	d.runUntil(t, 60*time.Second, func() bool { return sa2 != nil })
}

func TestManglerNATBreaksPlainCommonNATPunchObfuscationFixes(t *testing.T) {
	// §5.3 + §3.3: behind a common mangler NAT without hairpin, the
	// private endpoints exchanged through S are the only usable path.
	// A mangler NAT corrupts them in plain encodings; obfuscation
	// protects them.
	run := func(obfuscate bool) bool {
		b := nat.Mangler() // cone, mangles payload, no hairpin
		c := topo.NewCommonNAT(1, b)
		srv, err := rendezvous.NewOver(c.S.Transport(), serverPort, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := punch.Config{Obfuscate: obfuscate, PunchTimeout: 5 * time.Second}
		a := punch.NewClientOver(c.A.Transport(), "alice", srv.Endpoint(), cfg)
		bb := punch.NewClientOver(c.B.Transport(), "bob", srv.Endpoint(), cfg)
		a.RegisterUDP(4321, nil)
		bb.RegisterUDP(4321, nil)
		runUntil(t, c.Internet, 10*time.Second, func() bool {
			return a.UDPRegistered() && bb.UDPRegistered()
		})
		var sa *punch.UDPSession
		failed := false
		bb.InboundUDP = punch.UDPCallbacks{}
		a.ConnectUDP("bob", punch.UDPCallbacks{
			Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s },
			Failed:      func(string, error) { failed = true },
		})
		deadline := c.Net.Sched.Now() + 30*time.Second
		c.Net.Sched.RunWhile(func() bool {
			return sa == nil && !failed && c.Net.Sched.Now() < deadline
		})
		return sa != nil && sa.Via == punch.MethodPrivate
	}
	if run(false) {
		t.Error("plain encoding survived a mangler NAT (should corrupt private endpoints)")
	}
	if !run(true) {
		t.Error("obfuscated encoding failed behind a mangler NAT")
	}
}

func TestStrayTrafficAuthentication(t *testing.T) {
	// §3.4: messages to B's private endpoint may reach a wrong host
	// with the same private address on A's network. That host (also
	// running a punch client) must not disturb A's session, and A must
	// ignore its traffic — the nonce authentication at work.
	in := topo.NewInternet(1)
	core := in.CoreRealm()
	s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
	realmA := core.AddSite("NAT-A", nat.Cone(), "155.99.25.11", "10.1.1.0/24")
	realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
	hostA := realmA.AddHost("A", "10.1.1.5", host.BSDStyle)
	// The evil twin shares B's private address but lives on A's LAN.
	twin := realmA.AddHost("twin", "10.1.1.3", host.BSDStyle)
	hostB := realmB.AddHost("B", "10.1.1.3", host.BSDStyle)

	srv, err := rendezvous.NewOver(s.Transport(), serverPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClientOver(hostA.Transport(), "alice", srv.Endpoint(), punch.Config{})
	b := punch.NewClientOver(hostB.Transport(), "bob", srv.Endpoint(), punch.Config{})
	tw := punch.NewClientOver(twin.Transport(), "twin", srv.Endpoint(), punch.Config{})
	a.RegisterUDP(4321, nil)
	b.RegisterUDP(4321, nil)
	tw.RegisterUDP(4321, nil) // twin binds the same private port
	runUntil(t, in, 10*time.Second, func() bool {
		return a.UDPRegistered() && b.UDPRegistered() && tw.UDPRegistered()
	})

	var sa, sb *punch.UDPSession
	twinGot := 0
	tw.InboundUDP = punch.UDPCallbacks{
		Established: func(*punch.UDPSession, ice.Candidate) { twinGot++ },
	}
	b.InboundUDP = punch.UDPCallbacks{Established: func(s *punch.UDPSession, _ ice.Candidate) { sb = s }}
	a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s },
	})
	runUntil(t, in, 30*time.Second, func() bool { return sa != nil && sb != nil })

	// A's probes to B's private endpoint reached the twin, but the
	// twin never authenticated, and A locked in B's public endpoint.
	if sa.Via != punch.MethodPublic {
		t.Errorf("via = %v, want public", sa.Via)
	}
	if sa.Remote.Addr != inet.MustParseAddr("138.76.29.7") {
		t.Errorf("A locked %v, want B's NAT", sa.Remote)
	}
	if twinGot != 0 {
		t.Error("twin established a session from stray probes")
	}
}
