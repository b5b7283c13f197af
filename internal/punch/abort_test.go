package punch_test

// Regression: aborting our own dial (the context-cancellation release
// path) must not kill the peer's crossing dial to us — only
// requester-side attempts may be cancelled, never the responder-side
// attempt created by the peer's forwarded connection request.

import (
	"testing"
	"time"

	"natpunch/internal/nat"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/topo"
)

func TestAbortDoesNotKillCrossingDial(t *testing.T) {
	world := topo.NewCanonical(11, nat.Cone(), nat.Cone())
	srv, err := rendezvous.NewOver(world.S.Transport(), 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := punch.NewClientOver(world.A.Transport(), "alice", srv.Endpoint(), punch.Config{})
	b := punch.NewClientOver(world.B.Transport(), "bob", srv.Endpoint(), punch.Config{})
	if err := a.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	world.RunFor(time.Second)

	var bobSession *punch.UDPSession
	a.ConnectUDP("bob", punch.UDPCallbacks{})
	b.ConnectUDP("alice", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { bobSession = s },
	})
	// Let S forward both requests, so alice now holds her own
	// requester attempt AND a responder attempt for bob's dial.
	world.RunFor(45 * time.Millisecond)
	if !a.AbortUDP("bob") {
		t.Fatal("expected alice's own dial to be abortable")
	}
	if a.AbortUDP("bob") {
		t.Fatal("second abort should find nothing: the responder attempt must survive")
	}
	world.RunFor(5 * time.Second)
	if bobSession == nil {
		t.Fatal("bob's crossing dial died with alice's aborted one")
	}
	if got := a.UDPSessionCount(); got != 1 {
		t.Fatalf("alice should hold bob's session, have %d", got)
	}
}
