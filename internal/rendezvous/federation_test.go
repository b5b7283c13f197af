package rendezvous_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/sim"
	"natpunch/internal/topo"
)

// fedWorld is the Figure 5 scenario with the rendezvous tier split in
// two: alice's home is S1, bob's home is S2, and the servers are
// federated — the multi-server deployment shape of real systems
// (Skype supernodes, DCUtR relay fleets).
type fedWorld struct {
	*topo.Internet
	s1, s2 *rendezvous.Server
	a, b   *punch.Client
}

func newFedWorld(t *testing.T, seed int64, behA, behB nat.Behavior, cfg punch.Config, join bool) *fedWorld {
	t.Helper()
	in := topo.NewInternet(seed)
	core := in.CoreRealm()
	h1 := core.AddHost("S1", "18.181.0.31", host.BSDStyle)
	h2 := core.AddHost("S2", "18.181.0.32", host.BSDStyle)
	s1, err := rendezvous.NewOver(h1.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rendezvous.NewOver(h2.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	if join {
		s1.Join(s2.Endpoint())
		s2.Join(s1.Endpoint())
	}
	realmA := core.AddSite("NAT-A", behA, "155.99.25.11", "10.0.0.0/24")
	realmB := core.AddSite("NAT-B", behB, "138.76.29.7", "10.1.1.0/24")
	w := &fedWorld{Internet: in, s1: s1, s2: s2}
	w.a = punch.NewClientOver(realmA.AddHost("A", "10.0.0.1", host.BSDStyle).Transport(), "alice", s1.Endpoint(), cfg)
	w.b = punch.NewClientOver(realmB.AddHost("B", "10.1.1.3", host.BSDStyle).Transport(), "bob", s2.Endpoint(), cfg)
	return w
}

func (w *fedWorld) register(t *testing.T) {
	t.Helper()
	if err := w.a.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.b.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	w.runUntil(t, 10*time.Second, func() bool {
		return w.a.UDPRegistered() && w.b.UDPRegistered()
	})
}

func (w *fedWorld) runUntil(t *testing.T, window time.Duration, cond func() bool) {
	t.Helper()
	deadline := w.Net.Sched.Now() + window
	w.Net.Sched.RunWhile(func() bool {
		return !cond() && w.Net.Sched.Now() < deadline
	})
	if !cond() {
		t.Fatal("condition not reached within window")
	}
}

// punchVia runs alice's dial toward bob and returns both sessions.
func (w *fedWorld) punchVia(t *testing.T, window time.Duration) (sa, sb *punch.UDPSession) {
	t.Helper()
	w.b.InboundUDP = punch.UDPCallbacks{Established: func(s *punch.UDPSession, _ ice.Candidate) { sb = s }}
	w.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s },
		Failed:      func(_ string, err error) { t.Errorf("punch failed: %v", err) },
	})
	w.runUntil(t, window, func() bool {
		return sa != nil && (sb != nil || sa.Via == punch.MethodRelay)
	})
	return sa, sb
}

// baselineVia runs the same behaviors against a single server and
// reports the outcome class — the equivalence oracle for federation.
func baselineVia(t *testing.T, seed int64, behA, behB nat.Behavior, cfg punch.Config) punch.Method {
	t.Helper()
	c := topo.NewCanonical(seed, behA, behB)
	srv, err := rendezvous.NewOver(c.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClientOver(c.A.Transport(), "alice", srv.Endpoint(), cfg)
	b := punch.NewClientOver(c.B.Transport(), "bob", srv.Endpoint(), cfg)
	if err := a.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	var sa *punch.UDPSession
	done := false
	deadline := c.Net.Sched.Now() + 60*time.Second
	b.InboundUDP = punch.UDPCallbacks{}
	registered := func() bool { return a.UDPRegistered() && b.UDPRegistered() }
	c.Net.Sched.RunWhile(func() bool { return !registered() && c.Net.Sched.Now() < deadline })
	a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s; done = true },
		Failed:      func(string, error) { done = true },
	})
	c.Net.Sched.RunWhile(func() bool { return !done && c.Net.Sched.Now() < deadline })
	if sa == nil {
		t.Fatal("baseline punch never resolved")
	}
	return sa.Via
}

// TestFederatedCrossServerPunchMatchesBaseline is the acceptance pin:
// a peer registered on S1 dials a peer registered on S2 and lands in
// the same direct/relay outcome class as the single-server baseline,
// and application data flows both ways.
func TestFederatedCrossServerPunchMatchesBaseline(t *testing.T) {
	cases := []struct {
		name       string
		behA, behB nat.Behavior
	}{
		{"cone<->cone", nat.Cone(), nat.Cone()},
		{"fullcone<->restricted", nat.FullCone(), nat.RestrictedCone()},
		{"symmetric<->symmetric", nat.Symmetric(), nat.Symmetric()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := punch.Config{RelayFallback: true, PunchTimeout: 3 * time.Second}
			base := baselineVia(t, 1, tc.behA, tc.behB, cfg)

			w := newFedWorld(t, 1, tc.behA, tc.behB, cfg, true)
			w.register(t)
			sa, sb := w.punchVia(t, 30*time.Second)
			if sa.Via != base {
				t.Fatalf("cross-server outcome %v != single-server baseline %v", sa.Via, base)
			}

			// Data both ways — through the punched path, or across the
			// federated relay (A relays via S1, B via S2).
			var gotA, gotB []byte
			sa.OnData(func(_ *punch.UDPSession, p []byte) { gotA = append([]byte(nil), p...) })
			if sb == nil {
				// Relay class: bob's side materializes on first data.
				w.b.InboundUDP = punch.UDPCallbacks{}
			} else {
				sb.OnData(func(_ *punch.UDPSession, p []byte) { gotB = append([]byte(nil), p...) })
			}
			sa.Send([]byte("ping"))
			if sb != nil {
				w.runUntil(t, 10*time.Second, func() bool { return gotB != nil })
				sb.Send([]byte("pong"))
				w.runUntil(t, 10*time.Second, func() bool { return gotA != nil })
				if string(gotA) != "pong" || string(gotB) != "ping" {
					t.Fatalf("payloads: a=%q b=%q", gotA, gotB)
				}
			}
		})
	}
}

// TestFederatedRelaySessionCrossServer pins the §2.2 fallback across
// the federation in both directions: each side relays through its own
// home server and the servers forward to each other.
func TestFederatedRelaySessionCrossServer(t *testing.T) {
	cfg := punch.Config{RelayFallback: true, PunchTimeout: 2 * time.Second}
	w := newFedWorld(t, 3, nat.Symmetric(), nat.Symmetric(), cfg, true)
	w.register(t)

	var sa *punch.UDPSession
	var gotA, gotB []byte
	w.b.InboundUDP = punch.UDPCallbacks{
		Data: func(s *punch.UDPSession, p []byte) {
			gotB = append([]byte(nil), p...)
			s.Send([]byte("pong"))
		},
	}
	w.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s },
		Data:        func(_ *punch.UDPSession, p []byte) { gotA = append([]byte(nil), p...) },
	})
	w.runUntil(t, 30*time.Second, func() bool { return sa != nil })
	if sa.Via != punch.MethodRelay {
		t.Fatalf("via = %v, want relay", sa.Via)
	}
	sa.Send([]byte("ping"))
	w.runUntil(t, 20*time.Second, func() bool { return gotA != nil && gotB != nil })
	if string(gotA) != "pong" || string(gotB) != "ping" {
		t.Fatalf("payloads: a=%q b=%q", gotA, gotB)
	}
	if w.s1.Stats().FedForwards == 0 && w.s2.Stats().FedForwards == 0 {
		t.Error("relay traffic never crossed the federation link")
	}
}

// TestFederatedICENegotiationCrossServer pins candidate brokering
// across servers: the offer goes to alice's home, the synthesized
// answer and forwarded offer route through bob's home, and the
// engines converge on a direct path.
func TestFederatedICENegotiationCrossServer(t *testing.T) {
	cfg := punch.Config{RelayFallback: true, PunchTimeout: 5 * time.Second}
	w := newFedWorld(t, 5, nat.Cone(), nat.Cone(), cfg, true)
	w.register(t)

	var sa *punch.UDPSession
	var chosen ice.Candidate
	w.b.InboundUDP = punch.UDPCallbacks{}
	w.a.Connect("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, c ice.Candidate) { sa, chosen = s, c },
		Failed:      func(_ string, err error) { t.Errorf("negotiation failed: %v", err) },
	})
	w.runUntil(t, 30*time.Second, func() bool { return sa != nil })
	if chosen.Kind == ice.KindRelay {
		t.Fatalf("cone<->cone nominated relay; want a direct candidate")
	}
	if w.s2.Stats().FedForwards == 0 {
		t.Error("bob's offer copy never routed through his home server")
	}
	if w.s1.Stats().NegotiateRequests == 0 {
		t.Error("alice's home never brokered the negotiation")
	}
}

// TestFederationSyncOnJoin pins that joining replays existing
// registrations: clients registered before the link comes up are
// dialable across it immediately after.
func TestFederationSyncOnJoin(t *testing.T) {
	cfg := punch.Config{}
	w := newFedWorld(t, 7, nat.Cone(), nat.Cone(), cfg, false)
	w.register(t)
	if w.s1.Registered("bob") || w.s2.Registered("alice") {
		t.Fatal("records leaked across servers before any join")
	}
	w.s1.Join(w.s2.Endpoint())
	w.s2.Join(w.s1.Endpoint())
	w.runUntil(t, 5*time.Second, func() bool {
		return w.s1.Registered("bob") && w.s2.Registered("alice")
	})
	if len(w.s1.Peers()) != 1 || len(w.s2.Peers()) != 1 {
		t.Fatalf("peer sets: s1=%v s2=%v", w.s1.Peers(), w.s2.Peers())
	}
	sa, _ := w.punchVia(t, 30*time.Second)
	if sa.Via == punch.MethodRelay {
		t.Fatalf("cone<->cone relayed after join sync")
	}
}

// TestFederationIgnoresStrangers pins that federation traffic counts
// only from the peers a server joined. A stranger sends both servers a
// FedHello, a FedRecord claiming the name the other server's client
// dials, and a FedForward for the server's own client. None of it
// lands: the peer sets stay as joined, the stranger receives nothing,
// the forward reaches no one, and alice's dial still reaches bob.
func TestFederationIgnoresStrangers(t *testing.T) {
	w := newFedWorld(t, 7, nat.Cone(), nat.Cone(), punch.Config{}, true)
	w.register(t)
	w.runUntil(t, 5*time.Second, func() bool {
		return w.s1.Registered("bob") && w.s2.Registered("alice")
	})
	peers1, peers2 := w.s1.Peers(), w.s2.Peers()
	stats1, stats2 := w.s1.Stats(), w.s2.Stats()
	marker := []byte("forwarded by a stranger")
	forwarded := 0
	w.Net.SetHook(func(kind sim.HookKind, _ *sim.Segment, _ *sim.Iface, pkt *inet.Packet) {
		if kind == sim.HookSend && bytes.Equal(pkt.Payload, marker) {
			forwarded++
		}
	})

	x := newRawClient(t, w.CoreRealm().AddHost("X", "18.181.0.66", host.BSDStyle), 4321)
	xe := x.sock.Local()
	for _, c := range []struct {
		s            *rendezvous.Server
		local, other string
	}{{w.s1, "alice", "bob"}, {w.s2, "bob", "alice"}} {
		x.send(c.s.Endpoint(), &proto.Message{Type: proto.TypeFedHello})
		x.send(c.s.Endpoint(), &proto.Message{Type: proto.TypeFedRecord, From: c.other, Public: xe, Private: xe})
		x.send(c.s.Endpoint(), &proto.Message{Type: proto.TypeFedForward, Target: c.local, Data: marker})
	}
	w.RunFor(time.Second)

	if !slices.Equal(w.s1.Peers(), peers1) || !slices.Equal(w.s2.Peers(), peers2) {
		t.Errorf("peer sets moved: s1 %v -> %v, s2 %v -> %v", peers1, w.s1.Peers(), peers2, w.s2.Peers())
	}
	if st := w.s1.Stats(); st.FedRecords != stats1.FedRecords || st.FedForwards != stats1.FedForwards {
		t.Errorf("s1 counted the stranger's records or forwards: %+v -> %+v", stats1, st)
	}
	if st := w.s2.Stats(); st.FedRecords != stats2.FedRecords || st.FedForwards != stats2.FedForwards {
		t.Errorf("s2 counted the stranger's records or forwards: %+v -> %+v", stats2, st)
	}
	if forwarded != 0 {
		t.Errorf("the stranger's FedForward was delivered %d times", forwarded)
	}
	sa, _ := w.punchVia(t, 30*time.Second)
	if sa.Via == punch.MethodRelay {
		t.Errorf("cone<->cone relayed after the stranger's claim on bob")
	}
	if len(x.got) != 0 {
		t.Errorf("the stranger received %d messages, the first %v", len(x.got), x.got[0].Type)
	}
}
