package punch_test

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
)

// holdDetails makes c see the first NegotiateDetails from S only once
// a connectivity check has reached c — the order of the race when the
// server→c hop is slower than the peer→c one. It returns where to
// read when that check arrived.
func holdDetails(r *duo, c *punch.Client) *time.Duration {
	var (
		held     *proto.Message
		heldFrom inet.Endpoint
		released bool
		checkAt  time.Duration
	)
	punch.InterceptUDP(c, func(next func(inet.Endpoint, *proto.Message), from inet.Endpoint, m *proto.Message) {
		switch {
		case released:
		case m.Type == proto.TypeNegotiateDetails && held == nil:
			h := *m
			held, heldFrom = &h, from
			return
		case m.Type == proto.TypePunch && held != nil:
			released, checkAt = true, r.Net.Sched.Now()
			next(from, m)
			next(heldFrom, held)
			return
		}
		next(from, m)
	})
	return &checkAt
}

// TestCheckBeforeDetailsAnswered: the requester starts checking as
// soon as S answers it, so its first check can reach the responder
// before S's NegotiateDetails naming that nonce does. The responder
// must answer that check once the details arrive, not leave the
// requester to wait out a probe retransmission.
func TestCheckBeforeDetailsAnswered(t *testing.T) {
	r := publicDuo(t, 15)
	checkAt := holdDetails(r, r.b)
	start := r.Net.Sched.Now()
	out := r.negotiate(5 * time.Second)
	if *checkAt == 0 {
		t.Fatal("no check reached bob while his details were held: the race was not forced")
	}
	if !out.ok || out.chosen.Kind != ice.KindPublic {
		t.Fatalf("want a public nomination, got %+v", out)
	}
	if probe, wait := punch.ProbeInterval, start+out.elapsed-*checkAt; wait >= probe {
		t.Fatalf("alice nominated %v after her first check reached bob, want under one probe interval (%v)", wait, probe)
	}
}

// TestEarlyCheckFloodBounded: checks with nonces nobody negotiated,
// from several endpoints, cost a registered client a fixed ring and
// draw no reply; of everything it remembers, it answers only the
// check whose nonce S later names in NegotiateDetails.
func TestEarlyCheckFloodBounded(t *testing.T) {
	r := publicDuo(t, 16)
	var replies int
	var flooders []*host.UDPSocket
	for i := 0; i < 4; i++ {
		h := r.CoreRealm().AddHost(fmt.Sprintf("F%d", i), fmt.Sprintf("203.0.113.%d", i+1), host.BSDStyle)
		s, err := h.UDPBind(4000)
		if err != nil {
			t.Fatal(err)
		}
		s.OnRecv(func(inet.Endpoint, []byte) { replies++ })
		flooders = append(flooders, s)
	}
	// Read the ring after every datagram bob sees.
	most := 0
	punch.InterceptUDP(r.b, func(next func(inet.Endpoint, *proto.Message), from inet.Endpoint, m *proto.Message) {
		next(from, m)
		most = max(most, r.b.EarlyChecks())
	})

	rng := rand.New(rand.NewSource(16))
	const flood = 120
	for i := 0; i < flood; i++ {
		check := &proto.Message{Type: proto.TypePunch, From: "mallory", Nonce: rng.Uint64() | 1}
		flooders[i%len(flooders)].SendTo(r.b.PublicUDP(), proto.Encode(check, 0))
	}
	r.await(time.Second, func() bool { return false })
	if most != punch.EarlyCheckRing {
		t.Fatalf("ring held at most %d checks after a flood of %d, want exactly its bound %d", most, flood, punch.EarlyCheckRing)
	}
	if replies != 0 {
		t.Fatalf("bob answered %d of %d checks nobody negotiated", replies, flood)
	}

	// A real dial whose first check beats its details lands in the same
	// ring; it alone is answered when S names its nonce.
	checkAt := holdDetails(r, r.b)
	start := r.Net.Sched.Now()
	out := r.negotiate(5 * time.Second)
	if *checkAt == 0 || !out.ok || out.chosen.Kind != ice.KindPublic {
		t.Fatalf("want a public nomination after a forced early check, got %+v (check at %v)", out, *checkAt)
	}
	if wait := start + out.elapsed - *checkAt; wait >= punch.ProbeInterval {
		t.Fatalf("alice's early check went unanswered for %v", wait)
	}
	if replies != 0 {
		t.Fatalf("details for alice's nonce drew %d replies to the flood", replies)
	}
	if most > punch.EarlyCheckRing {
		t.Fatalf("ring grew to %d, past its bound %d", most, punch.EarlyCheckRing)
	}
}

// TestDiscoveredCheckFloodBounded: checks that carry a pending
// negotiation's nonce from many unknown sources are each acked once,
// but only the first few become probe loops; the rest cost one
// datagram each, however long the negotiation stays pending.
func TestDiscoveredCheckFloodBounded(t *testing.T) {
	r := publicDuo(t, 21)
	var nonce uint64
	punch.InterceptUDP(r.a, func(next func(inet.Endpoint, *proto.Message), from inet.Endpoint, m *proto.Message) {
		if m.From == "bob" && from != r.srv.Endpoint() {
			return // bob's checks and acks never reach alice: she stays pending
		}
		if m.Type == proto.TypeNegotiateDetails {
			nonce = m.Nonce
		}
		next(from, m)
	})
	failed := false
	r.a.Connect("bob", punch.UDPCallbacks{Failed: func(string, error) { failed = true }})
	if !r.await(time.Second, func() bool { return nonce != 0 }) {
		t.Fatal("alice got no NegotiateDetails")
	}

	h := r.CoreRealm().AddHost("F", "203.0.113.1", host.BSDStyle)
	const flood = 500
	got := make([]int, flood)
	for i := range got {
		s, err := h.UDPBind(inet.Port(4000 + i))
		if err != nil {
			t.Fatal(err)
		}
		s.OnRecv(func(inet.Endpoint, []byte) { got[i]++ })
		check := &proto.Message{Type: proto.TypePunch, From: "mallory", Nonce: nonce}
		s.SendTo(r.a.PublicUDP(), proto.Encode(check, 0))
	}
	const window = time.Second
	r.await(window, func() bool { return false })
	if failed {
		t.Fatal("alice's negotiation ended inside the window: the flood met no pending negotiation")
	}
	total, looped := 0, 0
	for i, n := range got {
		if n == 0 {
			t.Fatalf("source %d got no ack for its check", i)
		}
		if n > 1 {
			looped++
		}
		total += n
	}
	if looped > punch.MaxChecks {
		t.Errorf("%d of %d sources drew probe loops, want at most %d", looped, flood, punch.MaxChecks)
	}
	if most := flood + punch.MaxChecks*int(window/punch.ProbeInterval+1); total > most {
		t.Errorf("alice sent %d datagrams to %d one-check sources in %v, want at most %d", total, flood, window, most)
	}
}
