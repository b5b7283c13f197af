package punch_test

import (
	"testing"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
)

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

func TestFailbackAndRepunchRecovery(t *testing.T) {
	// A live direct session whose path goes dark fails back to the
	// relay (instead of §3.6 terminal death), keeps carrying data
	// there, and — once the blackout lifts — wins the direct path
	// back through the client's background re-negotiation.
	r := flatDuo(t, 5, nat.Cone(), nat.Cone(), migrateCfg())
	out := r.negotiate(10 * time.Second)
	sa, sb := out.session, out.bSession
	if !out.ok || sb == nil || sa.Via != punch.MethodPublic {
		t.Fatalf("setup: want a public session on both sides, got %+v", out)
	}

	// Black out the direct path: both receivers drop every datagram
	// that did not come through the rendezvous/relay server, in front
	// of their own dispatch.
	blocked := true
	drop := func(c *punch.Client) {
		punch.InterceptUDP(c, func(next func(inet.Endpoint, *proto.Message), from inet.Endpoint, m *proto.Message) {
			switch m.Type {
			case proto.TypeData, proto.TypeKeepAlive, proto.TypePunch,
				proto.TypePunchAck, proto.TypeMigrate:
				if blocked {
					return
				}
			}
			next(from, m)
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

// TestStaleDatagramDoesNotMoveSession: a datagram b has already
// delivered, replayed from a stranger's endpoint, leaves b's session
// where it was, and b's next datagram still reaches a. Only a datagram
// newer than any delivered follows the peer to a new endpoint.
func TestStaleDatagramDoesNotMoveSession(t *testing.T) {
	r := flatDuo(t, 5, nat.Cone(), nat.Cone(), migrateCfg())
	out := r.negotiate(10 * time.Second)
	sa, sb := out.session, out.bSession
	if !out.ok || sb == nil || sa.Via != punch.MethodPublic {
		t.Fatalf("setup: want a public session on both sides, got %+v", out)
	}
	var first *proto.Message
	var dispatch func(inet.Endpoint, *proto.Message)
	punch.InterceptUDP(r.b, func(next func(inet.Endpoint, *proto.Message), from inet.Endpoint, m *proto.Message) {
		if m.Type == proto.TypeData && first == nil {
			cp := *m
			cp.Data = append([]byte(nil), m.Data...)
			first, dispatch = &cp, next
		}
		next(from, m)
	})
	got := 0
	sb.OnData(func(*punch.UDPSession, []byte) { got++ })
	sa.Send([]byte("first"))
	if !r.await(5*time.Second, func() bool { return got == 1 }) || first == nil {
		t.Fatalf("b received %d datagrams, captured %v", got, first != nil)
	}

	remote := sb.Remote
	dispatch(inet.EP("6.6.6.6", 4444), first)
	if sb.Remote != remote {
		t.Errorf("a replayed datagram moved b's session from %v to %v", remote, sb.Remote)
	}
	var reply bool
	sa.OnData(func(*punch.UDPSession, []byte) { reply = true })
	sb.Send([]byte("reply"))
	if !r.await(5*time.Second, func() bool { return reply }) {
		t.Errorf("b's next datagram never reached a (sent to %v)", sb.Remote)
	}
}
