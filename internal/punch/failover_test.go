package punch_test

// Server-pool failover: a client whose home rendezvous server goes
// silent re-homes to the next pool member on its §3.6 keep-alive
// clock, re-registers there, and keeps working — without disturbing
// established peer-to-peer sessions.

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

// pooledWorld: two federated servers, alice and bob each installed
// with the same preference-ordered pool.
type pooledWorld struct {
	*topo.Internet
	s1, s2 *rendezvous.Server
	a, b   *punch.Client
}

func newPooledWorld(t *testing.T, seed int64) *pooledWorld {
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
	s1.Join(s2.Endpoint())
	s2.Join(s1.Endpoint())
	pool := []inet.Endpoint{s1.Endpoint(), s2.Endpoint()}
	realmA := core.AddSite("NAT-A", nat.Cone(), "155.99.25.11", "10.0.0.0/24")
	realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
	w := &pooledWorld{Internet: in, s1: s1, s2: s2}
	w.a = punch.NewClientOver(realmA.AddHost("A", "10.0.0.1", host.BSDStyle).Transport(), "alice", pool[0], punch.Config{})
	w.b = punch.NewClientOver(realmB.AddHost("B", "10.1.1.3", host.BSDStyle).Transport(), "bob", pool[0], punch.Config{})
	w.a.SetServerPool(rendezvous.Preference("alice", pool))
	w.b.SetServerPool(rendezvous.Preference("bob", pool))
	for _, c := range []*punch.Client{w.a, w.b} {
		if err := c.RegisterUDP(4321, nil); err != nil {
			t.Fatal(err)
		}
	}
	w.runUntil(t, 10*time.Second, func() bool {
		return w.a.UDPRegistered() && w.b.UDPRegistered()
	})
	return w
}

func (w *pooledWorld) runUntil(t *testing.T, window time.Duration, cond func() bool) {
	t.Helper()
	deadline := w.Net.Sched.Now() + window
	w.Net.Sched.RunWhile(func() bool {
		return !cond() && w.Net.Sched.Now() < deadline
	})
	if !cond() {
		t.Fatalf("condition not reached within %v", window)
	}
}

func (w *pooledWorld) serverOf(ep inet.Endpoint) *rendezvous.Server {
	if ep == w.s1.Endpoint() {
		return w.s1
	}
	return w.s2
}

func TestServerPoolFailoverPreservesSessions(t *testing.T) {
	w := newPooledWorld(t, 1)

	// Establish a direct session first.
	var sa, sb *punch.UDPSession
	w.b.InboundUDP = punch.UDPCallbacks{Established: func(s *punch.UDPSession, _ ice.Candidate) { sb = s }}
	w.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { sa = s },
		Failed:      func(_ string, err error) { t.Fatalf("initial punch failed: %v", err) },
	})
	w.runUntil(t, 30*time.Second, func() bool { return sa != nil && sb != nil })

	// Kill alice's current home; her pool must re-home her.
	home := w.a.Server()
	w.serverOf(home).Close()
	w.runUntil(t, 5*time.Minute, func() bool { return w.a.Server() != home })
	if w.a.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	survivor := w.a.Server()
	w.runUntil(t, 2*time.Minute, func() bool {
		return w.serverOf(survivor).Registered("alice")
	})

	// The established session must have survived the dead server: it
	// is peer-to-peer, and §3.6 keep-alives kept flowing throughout.
	var got []byte
	sb.OnData(func(_ *punch.UDPSession, p []byte) { got = append([]byte(nil), p...) })
	sa.Send([]byte("still here"))
	w.runUntil(t, 10*time.Second, func() bool { return got != nil })
	if string(got) != "still here" {
		t.Fatalf("payload = %q", got)
	}

	// And new dials work through the survivor — bob either stayed
	// homed there or failed over himself.
	var s2 *punch.UDPSession
	w.b.InboundUDP = punch.UDPCallbacks{}
	sa.Close()
	if sb != nil {
		sb.Close()
	}
	w.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession, _ ice.Candidate) { s2 = s },
		Failed:      func(_ string, err error) { t.Fatalf("post-failover punch failed: %v", err) },
	})
	w.runUntil(t, 5*time.Minute, func() bool { return s2 != nil })
	if s2.Via == punch.MethodRelay {
		t.Fatalf("post-failover cone<->cone punched via %v", s2.Via)
	}
}

// TestNoFailoverWhileServerHealthy is the control: acked keep-alives
// must keep the client homed forever.
func TestNoFailoverWhileServerHealthy(t *testing.T) {
	w := newPooledWorld(t, 2)
	home := w.a.Server()
	w.RunFor(10 * time.Minute)
	if w.a.Server() != home || w.a.Failovers != 0 {
		t.Fatalf("client re-homed (failovers=%d) though its server was healthy", w.a.Failovers)
	}
}

// TestRegistrationWalksDeadPool pins Open-time failover: when the
// preferred server is already dead at registration time, the client
// walks its pool and registers with the survivor.
func TestRegistrationWalksDeadPool(t *testing.T) {
	in := topo.NewInternet(3)
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
	s1.Join(s2.Endpoint())
	s2.Join(s1.Endpoint())
	in.RunFor(time.Second)
	s1.Close() // the head of the pool is dead before anyone registers

	realm := core.AddSite("NAT-A", nat.Cone(), "155.99.25.11", "10.0.0.0/24")
	c := punch.NewClientOver(realm.AddHost("A", "10.0.0.1", host.BSDStyle).Transport(), "alice", s1.Endpoint(), punch.Config{})
	c.SetServerPool([]inet.Endpoint{s1.Endpoint(), s2.Endpoint()})
	var regErr error
	gotErr := false
	if err := c.RegisterUDP(4321, func(err error) { regErr = err; gotErr = true }); err != nil {
		t.Fatal(err)
	}
	deadline := in.Net.Sched.Now() + 2*time.Minute
	in.Net.Sched.RunWhile(func() bool {
		return !c.UDPRegistered() && !gotErr && in.Net.Sched.Now() < deadline
	})
	if !c.UDPRegistered() || regErr != nil {
		t.Fatalf("registration did not fail over: registered=%v err=%v", c.UDPRegistered(), regErr)
	}
	if c.Server() != s2.Endpoint() {
		t.Fatalf("client homed at %v, want the survivor %v", c.Server(), s2.Endpoint())
	}
	if !s2.Registered("alice") {
		t.Fatal("survivor has no record for alice")
	}
}
