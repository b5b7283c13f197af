package rendezvous_test

// Regression suite for the registration-expiry bugfix: before the
// registry gained TTLs, a client that died without teardown stayed in
// the table and kept receiving forwards forever. Now a silent peer is
// purged once its §3.6 keep-alives stop, and subsequent dials fail
// fast with the server's error reply instead of timing out punching
// at a ghost.

import (
	"errors"
	"testing"
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/nat"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/topo"
	"natpunch/transport"
)

// newTTLWorld builds the canonical pair against a server with the
// given TTL and closes bob once both have registered: Close sends
// nothing, so he goes silent with his registration still on S.
func newTTLWorld(t *testing.T, ttl time.Duration) (*topo.Canonical, *rendezvous.Server, *punch.Client) {
	t.Helper()
	c := topo.NewCanonical(1, nat.Cone(), nat.Cone())
	srv, err := rendezvous.Serve(c.S.Transport(), rendezvous.Config{Port: 1234, TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClientOver(c.A.Transport(), "alice", srv.Endpoint(), punch.Config{})
	b := punch.NewClientOver(c.B.Transport(), "bob", srv.Endpoint(), punch.Config{})
	if err := a.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if !a.UDPRegistered() || !b.UDPRegistered() {
		t.Fatal("registration incomplete")
	}
	b.Close()
	return c, srv, a
}

func TestSilentPeerPurgedAndDialFailsFast(t *testing.T) {
	c, srv, a := newTTLWorld(t, 30*time.Second)
	if !srv.Registered("bob") {
		t.Fatal("bob not registered")
	}
	// Bob goes silent (no §3.6 keep-alives); his record must age out.
	c.RunFor(31 * time.Second)
	if srv.Registered("bob") {
		t.Fatal("silent peer still registered past its TTL")
	}
	// A dial toward the purged peer fails fast on S's error reply —
	// not by punching at a ghost until the punch timeout.
	start := c.Net.Sched.Now()
	var dialErr error
	var failedAt time.Duration
	a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(*punch.UDPSession, ice.Candidate) { t.Error("established a session with a purged peer") },
		Failed: func(_ string, err error) {
			dialErr = err
			failedAt = c.Net.Sched.Now()
		},
	})
	c.RunFor(15 * time.Second) // past the default 10s punch timeout
	if !errors.Is(dialErr, punch.ErrPeerUnknown) {
		t.Fatalf("dial error = %v, want ErrPeerUnknown", dialErr)
	}
	if elapsed := failedAt - start; elapsed > 2*time.Second {
		t.Errorf("failure took %v; want the fast error path, not a punch timeout", elapsed)
	}
}

func TestKeepAlivesExtendRegistrationTTL(t *testing.T) {
	c := topo.NewCanonical(2, nat.Cone(), nat.Cone())
	srv, err := rendezvous.Serve(c.S.Transport(), rendezvous.Config{Port: 1234, TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Default 15s keep-alives against a 30s TTL: the record must
	// survive arbitrarily long.
	b := punch.NewClientOver(c.B.Transport(), "bob", srv.Endpoint(), punch.Config{})
	if err := b.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Minute)
	if !srv.Registered("bob") {
		t.Fatal("keep-alives failed to extend the registration TTL")
	}
}

func TestNegativeTTLDisablesExpiry(t *testing.T) {
	c, srv, _ := newTTLWorld(t, -1)
	c.RunFor(time.Hour)
	if !srv.Registered("bob") {
		t.Fatal("expiry ran with a negative TTL")
	}
}

// TestRelayToPurgedPeerErrors pins the original bug's worst symptom:
// forwards to a dead client must stop once the TTL fires.
func TestRelayToPurgedPeerErrors(t *testing.T) {
	c, srv, _ := newTTLWorld(t, 30*time.Second)
	c.RunFor(31 * time.Second)
	before := srv.Stats().Errors
	// Raw relay attempt toward the purged name, from a bare socket on
	// alice's host.
	raw, err := c.A.UDPBind(4322)
	if err != nil {
		t.Fatal(err)
	}
	raw.SendTo(srv.Endpoint(), proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: 1, Data: []byte("x"),
	}, 0))
	c.RunFor(time.Second)
	if srv.Stats().Errors == before {
		t.Error("relay to a purged peer was not rejected")
	}
	if srv.Stats().RelayedMessages != 0 {
		t.Error("relay to a purged peer was forwarded")
	}
}

// Compile-time check that the server still satisfies the transport
// seam contract for adapters (Serve over any transport.Transport).
var _ = func(tr transport.Transport) {
	_, _ = rendezvous.Serve(tr, rendezvous.Config{})
}
