package natpunch

import (
	"net"
	"testing"
	"time"

	"natpunch/rendezvousapi"
	"natpunch/simnet"
)

// interface compliance pins.
var (
	_ net.Conn     = (*Conn)(nil)
	_ net.Listener = (*Listener)(nil)
)

// simPair builds the canonical Figure 5 world (two clients behind
// distinct NATs) and opens both endpoints with the given options.
func simPair(t *testing.T, natA, natB simnet.NAT, opts ...Option) (*Dialer, *Dialer, *rendezvousapi.Server, *simnet.World) {
	t.Helper()
	w := simnet.NewWorld(42)
	t.Cleanup(w.Close)
	core := w.Core()
	sHost := core.AddHost("S", "18.181.0.31")
	srv, err := rendezvousapi.Serve(sHost.Transport(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	realmA := core.AddSite("NAT-A", natA, "155.99.25.11", "10.0.0.0/24")
	realmB := core.AddSite("NAT-B", natB, "138.76.29.7", "10.1.1.0/24")
	hostA := realmA.AddHost("A", "10.0.0.1")
	hostB := realmB.AddHost("B", "10.1.1.3")

	alice, err := Open(hostA.Transport(), "alice", srv.Endpoint(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alice.Close() })
	bob, err := Open(hostB.Transport(), "bob", srv.Endpoint(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bob.Close() })
	return alice, bob, srv, w
}

// echoAccept accepts one session and echoes every datagram back with
// a prefix.
func echoAccept(t *testing.T, ln *Listener) {
	t.Helper()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 2048)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			conn.Write(append([]byte("echo:"), buf[:n]...))
		}
	}()
}

func TestFacadeSimPunchAndEcho(t *testing.T) {
	alice, bob, _, _ := simPair(t, simnet.Cone(), simnet.Cone())
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	echoAccept(t, ln)

	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Path() == "relay" {
		t.Errorf("cone<->cone should punch a direct path, got %s", conn.Path())
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "echo:hello" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestFacadeSimICERelayFloor(t *testing.T) {
	// Symmetric<->symmetric across distinct NATs cannot punch; the
	// relay floor carries the session.
	alice, bob, _, _ := simPair(t, simnet.Symmetric(), simnet.Symmetric(),
		WithRelayFallback(), WithPunchTimeout(3*time.Second))
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	echoAccept(t, ln)

	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Path() != "relay" {
		t.Fatalf("symmetric<->symmetric should relay, got %s", conn.Path())
	}
	if _, err := conn.Write([]byte("over the floor")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "echo:over the floor" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestFacadeDialUnknownPeerFails(t *testing.T) {
	alice, _, _, _ := simPair(t, simnet.Cone(), simnet.Cone())
	if _, err := alice.Dial("ghost"); err == nil {
		t.Fatal("dial to unregistered peer should fail")
	}
}

func TestFacadeObfuscationBeatsMangler(t *testing.T) {
	// §5.3 through the public API (E16): alice and bob sit behind one
	// NAT that rewrites payload bytes resembling its private addresses,
	// with no hairpin, so their private endpoints are the only path.
	// Obfuscated registrations (server and both dialers) keep those
	// endpoints intact; plain ones lose the private path, and with no
	// relay fallback the dial fails.
	for _, obfuscate := range []bool{true, false} {
		w := simnet.NewWorld(42)
		t.Cleanup(w.Close)
		core := w.Core()
		var serveOpts []rendezvousapi.ServeOption
		opts := []Option{WithPunchTimeout(2 * time.Second)}
		if obfuscate {
			serveOpts = append(serveOpts, rendezvousapi.WithObfuscation())
			opts = append(opts, WithObfuscation())
		}
		srv, err := rendezvousapi.Serve(core.AddHost("S", "18.181.0.31").Transport(), 1234, serveOpts...)
		if err != nil {
			t.Fatal(err)
		}
		mangler := simnet.Cone()
		mangler.Mangle = true
		lan := core.AddSite("NAT", mangler, "155.99.25.11", "10.0.0.0/24")
		alice, err := Open(lan.AddHost("A", "10.0.0.1").Transport(), "alice", srv.Endpoint(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { alice.Close() })
		bob, err := Open(lan.AddHost("B", "10.0.0.2").Transport(), "bob", srv.Endpoint(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bob.Close() })
		ln, err := bob.Listen()
		if err != nil {
			t.Fatal(err)
		}
		echoAccept(t, ln)

		conn, err := alice.Dial("bob")
		switch {
		case obfuscate && err != nil:
			t.Errorf("obfuscated dial behind the mangler: %v", err)
		case obfuscate && conn.Path() != "private":
			t.Errorf("obfuscated dial behind the mangler took %q, want private", conn.Path())
		case !obfuscate && err == nil:
			t.Errorf("plain dial behind the mangler succeeded on %q, want it to fail with no path left", conn.Path())
		}
		if err == nil {
			conn.Close()
		}
	}
}
