package ice_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
	"natpunch/internal/topo"
)

// publicRig puts S and both peers on the public core, un-NATed: each
// peer advertises one candidate, checked at once, and every datagram
// reaches its addressee.
func publicRig(t *testing.T, seed int64) *rig {
	in := topo.NewInternet(seed)
	core := in.CoreRealm()
	s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
	ha := core.AddHost("A", "155.99.25.80", host.BSDStyle)
	hb := core.AddHost("B", "138.76.29.9", host.BSDStyle)
	return newRig(t, in, s, ha, hb, fastCfg(), ice.Config{})
}

// holdDetails makes c's agent see the first NegotiateDetails from S
// only once a connectivity check has reached c — the order of the race
// when the server→c hop is slower than the peer→c one. It chains in
// front of whatever interceptor c has, and returns where to read when
// that check arrived.
func holdDetails(r *rig, c *punch.Client) *time.Duration {
	next := c.UDPIntercept()
	var (
		held     *proto.Message
		heldFrom inet.Endpoint
		released bool
		checkAt  time.Duration
	)
	c.SetUDPIntercept(func(from inet.Endpoint, m *proto.Message) bool {
		switch {
		case released:
		case m.Type == proto.TypeNegotiateDetails && held == nil:
			h := *m
			held, heldFrom = &h, from
			return true
		case m.Type == proto.TypePunch && held != nil:
			released, checkAt = true, r.in.Net.Sched.Now()
			consumed := next(from, m)
			next(heldFrom, held)
			return consumed
		}
		return next(from, m)
	})
	return &checkAt
}

// TestCheckBeforeDetailsAnswered: the requester starts checking as
// soon as S answers it, so its first check can reach the responder
// before S's NegotiateDetails naming that nonce does. The responder
// must answer that check once the details arrive, not leave the
// requester to wait out a probe retransmission.
func TestCheckBeforeDetailsAnswered(t *testing.T) {
	r := publicRig(t, 15)
	checkAt := holdDetails(r, r.b)
	start := r.in.Net.Sched.Now()
	out := r.negotiate(5 * time.Second)
	if *checkAt == 0 {
		t.Fatal("no check reached bob while his details were held: the race was not forced")
	}
	if !out.ok || out.chosen.Kind != ice.KindPublic {
		t.Fatalf("want a public nomination, got %+v", out)
	}
	probe := r.agA.Config().ProbeInterval
	if wait := start + out.elapsed - *checkAt; wait >= probe {
		t.Fatalf("alice nominated %v after her first check reached bob, want under one probe interval (%v)", wait, probe)
	}
}

// TestEarlyCheckFloodBounded: checks with nonces nobody negotiated,
// from several endpoints, cost a registered agent a fixed ring and
// draw no reply; of everything it remembers, it answers only the
// check whose nonce S later names in NegotiateDetails.
func TestEarlyCheckFloodBounded(t *testing.T) {
	r := publicRig(t, 16)
	var replies int
	var flooders []*host.UDPSocket
	for i := 0; i < 4; i++ {
		h := r.in.CoreRealm().AddHost(fmt.Sprintf("F%d", i), fmt.Sprintf("203.0.113.%d", i+1), host.BSDStyle)
		s, err := h.UDPBind(4000)
		if err != nil {
			t.Fatal(err)
		}
		s.OnRecv(func(inet.Endpoint, []byte) { replies++ })
		flooders = append(flooders, s)
	}
	// Read the ring after every datagram bob's agent sees.
	agent, most := r.b.UDPIntercept(), 0
	r.b.SetUDPIntercept(func(from inet.Endpoint, m *proto.Message) bool {
		consumed := agent(from, m)
		most = max(most, r.agB.EarlyChecks())
		return consumed
	})

	rng := rand.New(rand.NewSource(16))
	const flood = 120
	for i := 0; i < flood; i++ {
		check := &proto.Message{Type: proto.TypePunch, From: "mallory", Nonce: rng.Uint64() | 1}
		flooders[i%len(flooders)].SendTo(r.b.PublicUDP(), proto.Encode(check, 0))
	}
	r.await(time.Second, func() bool { return false })
	if most != ice.EarlyCheckRing {
		t.Fatalf("ring held at most %d checks after a flood of %d, want exactly its bound %d", most, flood, ice.EarlyCheckRing)
	}
	if replies != 0 {
		t.Fatalf("bob answered %d of %d checks nobody negotiated", replies, flood)
	}

	// A real dial whose first check beats its details lands in the same
	// ring; it alone is answered when S names its nonce.
	checkAt := holdDetails(r, r.b)
	start := r.in.Net.Sched.Now()
	out := r.negotiate(5 * time.Second)
	if *checkAt == 0 || !out.ok || out.chosen.Kind != ice.KindPublic {
		t.Fatalf("want a public nomination after a forced early check, got %+v (check at %v)", out, *checkAt)
	}
	if wait := start + out.elapsed - *checkAt; wait >= r.agA.Config().ProbeInterval {
		t.Fatalf("alice's early check went unanswered for %v", wait)
	}
	if replies != 0 {
		t.Fatalf("details for alice's nonce drew %d replies to the flood", replies)
	}
	if most > ice.EarlyCheckRing {
		t.Fatalf("ring grew to %d, past its bound %d", most, ice.EarlyCheckRing)
	}
}
