package ice_test

import (
	"encoding/binary"
	"testing"
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
)

// relayFirstOutcome wires callbacks directly (the shared negotiate
// helper returns its outcome struct by value, which would miss the
// callbacks relay-first keeps firing after the early return).
type relayFirstOutcome struct {
	session  *punch.UDPSession
	chosen   ice.Candidate
	bSession *punch.UDPSession
	failed   bool
	err      error
	elapsed  time.Duration
}

func (r *rig) connectRelayFirst(t *testing.T, window time.Duration) *relayFirstOutcome {
	t.Helper()
	out := &relayFirstOutcome{}
	start := r.in.Net.Sched.Now()
	r.agB.Inbound = ice.Callbacks{
		Established: func(s *punch.UDPSession, chosen ice.Candidate) { out.bSession = s },
	}
	r.agA.Connect("bob", ice.Callbacks{
		Established: func(s *punch.UDPSession, chosen ice.Candidate) {
			out.session, out.chosen = s, chosen
			out.elapsed = r.in.Net.Sched.Now() - start
		},
		Failed: func(peer string, err error) { out.failed, out.err = true, err },
	})
	if !r.await(window, func() bool {
		return (out.session != nil && out.bSession != nil) || out.failed
	}) || out.failed {
		t.Fatalf("relay-first connect did not establish both sides (failed=%v err=%v)",
			out.failed, out.err)
	}
	return out
}

func TestRelayFirstNegotiationUpgrades(t *testing.T) {
	// Relay-first over the candidate engine: Connect establishes on
	// the relay floor as soon as the candidate exchange completes,
	// the checks keep running in the background, and the first ack
	// migrates the live session onto the nominated direct path.
	pcfg := punch.Config{RelayFallback: true, RelayFirst: true}
	r := flatRig(t, 1, nat.Cone(), nat.Cone(), pcfg, ice.Config{})

	out := r.connectRelayFirst(t, 5*time.Second)
	if out.chosen.Kind != ice.KindRelay {
		t.Fatalf("chosen %v, want immediate relay", out.chosen)
	}
	// Established after ~1 server round-trip, not after the paced
	// check schedule.
	if out.elapsed > 100*time.Millisecond {
		t.Errorf("relay-first establish took %v, want ~1 server RTT", out.elapsed)
	}

	first := out.session
	if !r.await(10*time.Second, func() bool {
		return out.session.Via == punch.MethodPublic && out.bSession.Via == punch.MethodPublic
	}) {
		t.Fatalf("background checks never upgraded the session (via %v/%v)",
			out.session.Via, out.bSession.Via)
	}
	if out.session != first {
		t.Error("upgrade replaced the session instead of migrating it")
	}
	if r.agA.PendingNegotiations() != 0 || r.agB.PendingNegotiations() != 0 {
		t.Errorf("negotiations leaked: %d/%d",
			r.agA.PendingNegotiations(), r.agB.PendingNegotiations())
	}
}

func TestRelayFirstNegotiationSymmetricFloor(t *testing.T) {
	// Symmetric<->symmetric: checks exhaust, and the relay-first
	// session silently stays on the floor it started on — no second
	// Established, no Failed, no replacement.
	pcfg := punch.Config{RelayFallback: true, RelayFirst: true}
	r := flatRig(t, 3, nat.Symmetric(), nat.Symmetric(), pcfg, ice.Config{})

	out := r.connectRelayFirst(t, 5*time.Second)
	first := out.session
	r.await(r.agA.Config().Timeout+time.Second, func() bool {
		return r.agA.PendingNegotiations() == 0 && r.agB.PendingNegotiations() == 0
	})
	if out.session.Via != punch.MethodRelay || out.session != first {
		t.Errorf("session changed (via %v): want to stay on relay floor", out.session.Via)
	}
	if out.failed {
		t.Errorf("negotiation reported failure %v after establishing", out.err)
	}

	// The session still carries data across the relay.
	var echoed bool
	out.bSession.OnData(func(s *punch.UDPSession, b []byte) { s.Send(b) })
	out.session.OnData(func(s *punch.UDPSession, b []byte) { echoed = true })
	out.session.Send([]byte("ping"))
	if !r.await(5*time.Second, func() bool { return echoed }) {
		t.Error("relay floor stopped carrying data after checks exhausted")
	}
}

// migrateCfg shrinks the engine's clocks so migration lifecycles fit
// in seconds of simulated time.
func migrateCfg() punch.Config {
	return punch.Config{
		KeepAliveInterval: time.Second,
		DeadAfter:         3 * time.Second,
		PunchTimeout:      2 * time.Second,
		RepunchEvery:      5 * time.Second,
		RelayFallback:     true,
		PathUpgrade:       true,
	}
}

func TestRelayFirstStreamContinuity(t *testing.T) {
	// The acceptance bar for the cutover: a datagram stream running
	// across the relay->direct migration arrives complete and in
	// order — the drain-then-switch protocol holds overtaking
	// new-path datagrams until the relayed tail lands.
	pcfg := migrateCfg()
	pcfg.RelayFirst = true
	r := flatRig(t, 7, nat.Cone(), nat.Cone(), pcfg, ice.Config{})
	out := r.connectRelayFirst(t, 10*time.Second)
	sa, sb := out.session, out.bSession
	if sa.Via != punch.MethodRelay {
		t.Fatalf("relay-first dial established via %v, want relay", sa.Via)
	}

	var got []uint32
	sb.OnData(func(_ *punch.UDPSession, b []byte) { got = append(got, binary.BigEndian.Uint32(b)) })
	// Stream 100 sequenced datagrams at 10ms spacing from the moment
	// the relay session is up: the checks' nomination lands mid-stream.
	const total = 100
	var sent, sentAtSwitch uint32
	sa.OnPathChange(func(*punch.UDPSession, punch.Method, punch.Method) { sentAtSwitch = sent })
	var pump func()
	pump = func() {
		if sent >= total {
			return
		}
		sent++
		sa.Send(binary.BigEndian.AppendUint32(nil, sent))
		r.a.Transport().After(10*time.Millisecond, pump)
	}
	pump()

	if !r.await(30*time.Second, func() bool { return len(got) == total }) {
		t.Fatalf("%d of %d datagrams delivered", len(got), total)
	}
	if sa.Via != punch.MethodPublic || sa.PathChanges == 0 {
		t.Fatalf("stream never migrated (via %v, %d changes): cutover untested", sa.Via, sa.PathChanges)
	}
	if sentAtSwitch == 0 || sentAtSwitch == total {
		t.Fatalf("migration after %d of %d datagrams: the cutover did not land mid-stream", sentAtSwitch, total)
	}
	t.Logf("migrated after %d of %d datagrams", sentAtSwitch, total)
	for i, seq := range got {
		if seq != uint32(i+1) {
			t.Fatalf("datagram %d has seq %d: loss or reordering across the cutover", i, seq)
		}
	}
	if sb.RecvDatagrams != total {
		t.Fatalf("receiver session accounted %d datagrams, want %d", sb.RecvDatagrams, total)
	}
}

func TestFailbackAndRepunchRecovery(t *testing.T) {
	// A live direct session whose path goes dark fails back to the
	// relay (instead of §3.6 terminal death), keeps carrying data
	// there, and — once the blackout lifts — wins the direct path
	// back through the agent's background re-negotiation.
	r := flatRig(t, 5, nat.Cone(), nat.Cone(), migrateCfg(), ice.Config{})
	out := r.negotiate(10 * time.Second)
	sa, sb := out.session, out.bSession
	if !out.ok || sb == nil || sa.Via != punch.MethodPublic {
		t.Fatalf("setup: want a public session on both sides, got %+v", out)
	}

	// Black out the direct path: both receivers drop every datagram
	// that did not come through the rendezvous/relay server, in front
	// of the agent's own interceptor.
	blocked := true
	drop := func(c *punch.Client) {
		agent := c.UDPIntercept()
		c.SetUDPIntercept(func(from inet.Endpoint, m *proto.Message) bool {
			switch m.Type {
			case proto.TypeData, proto.TypeKeepAlive, proto.TypePunch,
				proto.TypePunchAck, proto.TypeMigrate:
				if blocked {
					return true
				}
			}
			return agent(from, m)
		})
	}
	drop(r.a)
	drop(r.b)

	var deadFired bool
	sa.OnDead(func(*punch.UDPSession) { deadFired = true })
	sb.OnDead(func(*punch.UDPSession) { deadFired = true })

	if !r.await(30*time.Second, func() bool {
		return sa.Via == punch.MethodRelay && sb.Via == punch.MethodRelay
	}) {
		t.Fatalf("never failed back: via %v/%v", sa.Via, sb.Via)
	}
	if deadFired {
		t.Fatal("session died; want failback to relay")
	}

	// Data still flows across the relay.
	var relayedEcho bool
	sb.OnData(func(s *punch.UDPSession, b []byte) { s.Send(b) })
	sa.OnData(func(s *punch.UDPSession, b []byte) { relayedEcho = true })
	sa.Send([]byte("still-there"))
	if !r.await(5*time.Second, func() bool { return relayedEcho }) {
		t.Fatal("no echo across the relay after failback")
	}

	// Blackout lifts: the periodic re-punch recovers the direct path
	// for the same session objects.
	blocked = false
	if !r.await(30*time.Second, func() bool {
		return sa.Via == punch.MethodPublic && sb.Via == punch.MethodPublic
	}) {
		t.Fatalf("never recovered the direct path: via %v/%v", sa.Via, sb.Via)
	}
	if deadFired {
		t.Error("session died during recovery")
	}
	if got := r.a.LookupUDPSession("bob"); got != sa {
		t.Error("recovery replaced alice's session instead of migrating it")
	}
	if got := r.b.LookupUDPSession("alice"); got != sb {
		t.Error("recovery replaced bob's session instead of migrating it")
	}
}
