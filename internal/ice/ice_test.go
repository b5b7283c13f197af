package ice_test

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

const serverPort inet.Port = 1234

// rig is one negotiation testbed: a topology with S, two registered
// punch clients, and an agent on each.
type rig struct {
	in   *topo.Internet
	srv  *rendezvous.Server
	a, b *punch.Client
	agA  *ice.Agent
	agB  *ice.Agent
}

func newRig(t testing.TB, in *topo.Internet, s, hostA, hostB *host.Host, pcfg punch.Config, icfg ice.Config) *rig {
	t.Helper()
	srv, err := rendezvous.New(s, serverPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{in: in, srv: srv}
	r.a = punch.NewClient(hostA, "alice", srv.Endpoint(), pcfg)
	r.b = punch.NewClient(hostB, "bob", srv.Endpoint(), pcfg)
	r.agA = ice.New(r.a, icfg)
	r.agB = ice.New(r.b, icfg)
	if err := r.a.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.b.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	r.await(10*time.Second, func() bool { return r.a.UDPRegistered() && r.b.UDPRegistered() })
	if !r.a.UDPRegistered() || !r.b.UDPRegistered() {
		t.Fatal("registration did not complete")
	}
	return r
}

// flatRig builds the Figure 5 two-NAT topology.
func flatRig(t testing.TB, seed int64, behA, behB nat.Behavior, pcfg punch.Config, icfg ice.Config) *rig {
	c := topo.NewCanonical(seed, behA, behB)
	return newRig(t, c.Internet, c.S, c.A, c.B, pcfg, icfg)
}

// commonRig builds the Figure 4 shared-NAT topology.
func commonRig(t testing.TB, seed int64, beh nat.Behavior, pcfg punch.Config, icfg ice.Config) *rig {
	c := topo.NewCommonNAT(seed, beh)
	return newRig(t, c.Internet, c.S, c.A, c.B, pcfg, icfg)
}

// multiRig builds the Figure 6 multi-level topology.
func multiRig(t testing.TB, seed int64, behCGN, behA, behB nat.Behavior, pcfg punch.Config, icfg ice.Config) *rig {
	c := topo.NewMultiLevel(seed, behCGN, behA, behB)
	return newRig(t, c.Internet, c.S, c.A, c.B, pcfg, icfg)
}

func (r *rig) await(window time.Duration, cond func() bool) bool {
	sched := r.in.Net.Sched
	deadline := sched.Now() + window
	sched.RunWhile(func() bool { return !cond() && sched.Now() < deadline })
	return cond()
}

// outcome is the observed result of one negotiation.
type outcome struct {
	ok      bool
	failed  bool
	err     error
	chosen  ice.Candidate
	session *punch.UDPSession
	elapsed time.Duration
	// bChosen is what the responder side nominated (zero if pending).
	bChosen  ice.Candidate
	bSession *punch.UDPSession
	bOK      bool
}

// negotiate runs alice -> bob and waits for both sides (or failure).
func (r *rig) negotiate(window time.Duration) outcome {
	var out outcome
	start := r.in.Net.Sched.Now()
	r.agB.Inbound = ice.Callbacks{
		Established: func(s *punch.UDPSession, chosen ice.Candidate) {
			out.bOK, out.bChosen, out.bSession = true, chosen, s
		},
	}
	r.agA.Connect("bob", ice.Callbacks{
		Established: func(s *punch.UDPSession, chosen ice.Candidate) {
			out.ok, out.chosen, out.session = true, chosen, s
			out.elapsed = r.in.Net.Sched.Now() - start
		},
		Failed: func(peer string, err error) { out.failed, out.err = true, err },
	})
	r.await(window, func() bool { return (out.ok && (out.bOK || out.chosen.Kind == ice.KindRelay)) || out.failed })
	return out
}

func fastCfg() punch.Config {
	return punch.Config{
		PunchTimeout:                 3 * time.Second,
		RelayFallback:                true,
		DisableRegistrationKeepAlive: true,
	}
}

func TestFlatConePairNominatesPublic(t *testing.T) {
	r := flatRig(t, 1, nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindPublic {
		t.Fatalf("want public nomination, got %+v", out)
	}
	if out.elapsed > time.Second {
		t.Errorf("flat cone pair took %v to converge", out.elapsed)
	}
	if out.session.Via != punch.MethodPublic {
		t.Errorf("adopted session Via = %v, want public", out.session.Via)
	}
}

func TestCommonNATNominatesPrivate(t *testing.T) {
	// Figure 4: same NAT, no hairpin needed — the private candidate
	// must win (it is both highest-priority and fastest).
	b := nat.Cone() // no hairpin support: the public path would dead-end
	r := commonRig(t, 2, b, fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindPrivate {
		t.Fatalf("want private nomination, got %+v", out)
	}
	if out.session.Via != punch.MethodPrivate {
		t.Errorf("adopted session Via = %v, want private", out.session.Via)
	}
	// The responder converges on the mirror-image private candidate.
	if !out.bOK || out.bChosen.Kind != ice.KindPrivate {
		t.Errorf("responder chose %+v, want private", out.bChosen)
	}
}

func TestCommonNATNoPrivateFallsToRelay(t *testing.T) {
	// Ablating private candidates on a hairpin-less common NAT leaves
	// only the doomed public path: the relay floor must catch it.
	r := commonRig(t, 3, nat.Cone(), fastCfg(), ice.Config{NoPrivate: true})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindRelay {
		t.Fatalf("want relay floor, got %+v", out)
	}
	if out.session.Via != punch.MethodRelay {
		t.Errorf("adopted session Via = %v, want relay", out.session.Via)
	}
}

func TestMultiLevelHairpinNominatesHairpin(t *testing.T) {
	// Figure 6: cone homes behind a hairpinning upper NAT. The peers'
	// public addresses coincide (the upper NAT's), so the engine
	// reclassifies the public candidate as hairpin and it works.
	r := multiRig(t, 4, nat.WellBehaved(), nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindHairpin {
		t.Fatalf("want hairpin nomination, got %+v", out)
	}
}

func TestMultiLevelNoHairpinRelays(t *testing.T) {
	// Same topology, hairpin-less upper NAT (§3.4.2/§3.4.3: exactly
	// the case the paper flags): every direct path dead-ends.
	r := multiRig(t, 5, nat.Cone(), nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindRelay {
		t.Fatalf("want relay, got %+v", out)
	}
}

func TestSymmetricOpenBehindHairpinCGNConnectsDirect(t *testing.T) {
	// The E-ICE acceptance scenario: symmetric-mapping homes behind a
	// hairpin-capable CGN. Advertised endpoints are useless (fresh
	// per-destination mappings), but nothing is filtered, so the
	// hairpinned probes land and triggered peer-reflexive checks
	// converge — no relay.
	r := multiRig(t, 6, nat.WellBehaved(), nat.SymmetricOpen(), nat.SymmetricOpen(), fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind == ice.KindRelay {
		t.Fatalf("want direct convergence, got %+v", out)
	}
	if out.chosen.Kind != ice.KindHairpin {
		t.Errorf("chosen kind %v; want hairpin (discovered mapping shares the CGN address)", out.chosen.Kind)
	}
	// The hairpinned session must actually carry data both ways, even
	// as the symmetric home NATs mint fresh mappings per endpoint.
	var got []byte
	out.session.OnData(func(_ *punch.UDPSession, p []byte) { got = p })
	out.bSession.OnData(func(s *punch.UDPSession, p []byte) { s.Send([]byte("pong")) })
	out.session.Send([]byte("ping"))
	r.await(5*time.Second, func() bool { return got != nil })
	if string(got) != "pong" {
		t.Fatalf("no echo over the hairpinned session: got %q", got)
	}
}

func TestSymmetricStrictPairRelays(t *testing.T) {
	// Strict symmetric pairs (per-destination mappings AND
	// address+port filtering) cannot punch (§5.1); the floor holds.
	r := flatRig(t, 7, nat.Symmetric(), nat.Symmetric(), fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindRelay {
		t.Fatalf("want relay, got %+v", out)
	}
}

// TestRelayedDataBeforeResponderDeadline: the requester's deadline
// runs from its offer, the responder's from the forwarded offer's
// arrival, so the requester nominates the relay first and its first
// relayed datagram races the responder's own deadline. The
// server→responder hop is slow while the offer is forwarded and fast
// again when the data comes, which fixes the order: the datagram finds
// the responder still checking, and must nominate the relay there and
// be delivered rather than dropped.
func TestRelayedDataBeforeResponderDeadline(t *testing.T) {
	c := topo.NewCanonical(7, nat.Symmetric(), nat.Symmetric())
	r := newRig(t, c.Internet, c.S, c.A, c.B, fastCfg(), ice.Config{})
	sched := c.Net.Sched
	var bChosen ice.Candidate
	var bGot string
	var bGotAt time.Duration
	r.agB.Inbound = ice.Callbacks{
		Established: func(_ *punch.UDPSession, chosen ice.Candidate) { bChosen = chosen },
		Data:        func(_ *punch.UDPSession, p []byte) { bGot, bGotAt = string(p), sched.Now() },
	}
	c.RealmB.Seg.SetLatency(30 * topo.LANLatency)
	start := sched.Now()
	r.agA.Connect("bob", ice.Callbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { s.Send([]byte("only datagram")) },
		Failed:      func(_ string, err error) { t.Fatalf("negotiation failed: %v", err) },
	})
	c.RunFor(time.Second) // the exchange is over; both sides check in vain
	c.RealmB.Seg.SetLatency(topo.LANLatency)
	if !r.await(5*time.Second, func() bool { return bGot != "" }) {
		t.Fatal("the requester's only datagram never reached the responder's application")
	}
	if bGot != "only datagram" || bChosen.Kind != ice.KindRelay {
		t.Fatalf("responder got %q after nominating %v, want the datagram on the relay", bGot, bChosen)
	}
	responderDeadline := start + topo.CoreLatency + topo.LANLatency + // alice -> S
		topo.CoreLatency + 30*topo.LANLatency + fastCfg().PunchTimeout // S -> bob, then the timeout
	if bGotAt >= responderDeadline {
		t.Fatalf("datagram delivered at %v, not before the responder's deadline %v: the order was not forced",
			bGotAt, responderDeadline)
	}
	if n := r.agB.PendingNegotiations(); n != 0 {
		t.Errorf("%d negotiations still pending on the responder", n)
	}
}

func TestRestrictedConeSymmetricConvergesReflexive(t *testing.T) {
	// A restricted-cone (address-dependent filter) side admits the
	// symmetric peer's probes from their fresh mapping; the triggered
	// check converges on a peer-reflexive candidate (§5.1).
	r := flatRig(t, 8, nat.RestrictedCone(), nat.Symmetric(), fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind == ice.KindRelay {
		t.Fatalf("want direct convergence, got %+v", out)
	}
}

func TestNoRelayHardFails(t *testing.T) {
	r := flatRig(t, 9, nat.Symmetric(), nat.Symmetric(), fastCfg(), ice.Config{NoRelay: true})
	out := r.negotiate(10 * time.Second)
	if !out.failed || out.err != punch.ErrPunchTimeout {
		t.Fatalf("want hard timeout failure, got %+v", out)
	}
}

func TestUnknownPeerFails(t *testing.T) {
	r := flatRig(t, 10, nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	var failed error
	r.agA.Connect("nobody", ice.Callbacks{
		Failed: func(peer string, err error) { failed = err },
	})
	r.await(10*time.Second, func() bool { return failed != nil })
	if failed != punch.ErrPeerUnknown {
		t.Fatalf("want ErrPeerUnknown, got %v", failed)
	}
}

func TestBusyNegotiationRejected(t *testing.T) {
	r := flatRig(t, 11, nat.Symmetric(), nat.Symmetric(), fastCfg(), ice.Config{})
	r.agA.Connect("bob", ice.Callbacks{})
	var failed error
	r.agA.Connect("bob", ice.Callbacks{Failed: func(_ string, err error) { failed = err }})
	if failed != punch.ErrBusy {
		t.Fatalf("want ErrBusy, got %v", failed)
	}
}

func TestPublicPeerPair(t *testing.T) {
	// Un-NATed peers: one public candidate each, nominated directly.
	in := topo.NewInternet(12)
	core := in.CoreRealm()
	s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
	ha := core.AddHost("A", "155.99.25.80", host.BSDStyle)
	hb := core.AddHost("B", "138.76.29.9", host.BSDStyle)
	r := newRig(t, in, s, ha, hb, fastCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	if !out.ok || out.chosen.Kind != ice.KindPublic {
		t.Fatalf("want public, got %+v", out)
	}
}

func TestCrossingNegotiations(t *testing.T) {
	// Both sides dial simultaneously: two nonces, two negotiations;
	// both must resolve without leaking state, and the client tables
	// must end with exactly one live session per side.
	r := flatRig(t, 13, nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	var aOK, bOK bool
	r.agA.Connect("bob", ice.Callbacks{
		Established: func(*punch.UDPSession, ice.Candidate) { aOK = true },
	})
	r.agB.Connect("alice", ice.Callbacks{
		Established: func(*punch.UDPSession, ice.Candidate) { bOK = true },
	})
	r.await(10*time.Second, func() bool { return aOK && bOK })
	if !aOK || !bOK {
		t.Fatalf("crossing negotiations did not both resolve: a=%v b=%v", aOK, bOK)
	}
}

// TestAbortDoesNotKillCrossingNegotiation: aborting our own dial (the
// facade's context-cancellation path) releases only the negotiation we
// started, never the responder side of the peer's crossing dial to us.
func TestAbortDoesNotKillCrossingNegotiation(t *testing.T) {
	r := flatRig(t, 16, nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	var bobSession *punch.UDPSession
	r.agA.Connect("bob", ice.Callbacks{
		Established: func(*punch.UDPSession, ice.Candidate) { t.Error("alice's aborted dial established") },
	})
	r.agB.Connect("alice", ice.Callbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { bobSession = s },
	})
	// Let S forward both offers, so alice holds her own negotiation
	// AND the responder side of bob's.
	r.await(45*time.Millisecond, func() bool { return false })
	if n := r.agA.PendingNegotiations(); n != 2 {
		t.Fatalf("alice holds %d negotiations before the abort, want 2", n)
	}
	if !r.agA.Abort("bob") {
		t.Fatal("expected alice's own dial to be abortable")
	}
	if r.agA.Abort("bob") {
		t.Fatal("second abort should find nothing: the responder side must survive")
	}
	if !r.await(5*time.Second, func() bool { return bobSession != nil && r.a.LookupUDPSession("bob") != nil }) {
		t.Fatalf("bob's crossing dial died with alice's aborted one (bob's session %v)", bobSession)
	}
	if s := r.a.LookupUDPSession("bob"); s.Nonce != bobSession.Nonce {
		t.Fatalf("alice holds a session with nonce %d, want bob's dial's %d", s.Nonce, bobSession.Nonce)
	}
}

func TestAdoptedSessionCarriesData(t *testing.T) {
	r := flatRig(t, 14, nat.Cone(), nat.Cone(), fastCfg(), ice.Config{})
	var got []byte
	var bobSession *punch.UDPSession
	r.agB.Inbound = ice.Callbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { bobSession = s },
		Data: func(s *punch.UDPSession, p []byte) {
			s.Send(append([]byte("echo:"), p...))
		},
	}
	var aliceSession *punch.UDPSession
	r.agA.Connect("bob", ice.Callbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { aliceSession = s },
		Data:        func(s *punch.UDPSession, p []byte) { got = p },
	})
	r.await(10*time.Second, func() bool { return aliceSession != nil && bobSession != nil })
	if aliceSession == nil || bobSession == nil {
		t.Fatal("sessions not established")
	}
	aliceSession.Send([]byte("ping"))
	r.await(5*time.Second, func() bool { return got != nil })
	if string(got) != "echo:ping" {
		t.Fatalf("echo = %q", got)
	}
}

func TestSameSeedDeterministic(t *testing.T) {
	run := func() (ice.Candidate, time.Duration, uint64) {
		r := multiRig(t, 99, nat.WellBehaved(), nat.Cone(), nat.Symmetric(), fastCfg(), ice.Config{})
		out := r.negotiate(10 * time.Second)
		if !out.ok {
			t.Fatal("negotiation did not resolve")
		}
		return out.chosen, out.elapsed, r.in.Net.Sched.Processed
	}
	c1, e1, p1 := run()
	c2, e2, p2 := run()
	if c1 != c2 || e1 != e2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%v,%v,%d) vs (%v,%v,%d)", c1, e1, p1, c2, e2, p2)
	}
}
