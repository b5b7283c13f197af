package natpunch

// Regression tests carrying the engine's §3.6 keep-alive / idle-death
// guarantees (pinned in the simulator by the PR-2 fleet tests, e.g.
// TestRelaySessionIdleDeath) onto real sockets: the old realnet stack
// had neither, and the transport unification is what brings them
// along for free.

import (
	"errors"
	"net"
	"testing"
	"time"

	"natpunch/internal/proto"
	"natpunch/realudp"
	"natpunch/rendezvousapi"
)

// realPairKeepAlive opens a loopback pair with aggressive §3.6 timers
// so idle death is observable in test time. It returns bob's
// transport too, so tests can kill bob abruptly (socket gone, no
// goodbye) the way a departed NAT'd peer disappears.
func realPairKeepAlive(t *testing.T, blockDirect bool) (alice, bob *Dialer, bobTr *realudp.Transport) {
	t.Helper()
	requireLoopbackUDP(t)
	serverTr, err := realudp.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serverTr.Close() })
	srv, err := rendezvousapi.Serve(serverTr, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithRelayFallback(),
		WithPunchTimeout(700 * time.Millisecond),
		WithKeepAlive(100*time.Millisecond, 500*time.Millisecond),
	}
	open := func(name string) (*Dialer, *realudp.Transport) {
		tr, err := realudp.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		d, err := Open(tr, name, srv.Endpoint(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d, tr
	}
	alice, _ = open("alice")
	bob, bobTr = open("bob")
	if blockDirect {
		dropProbes(bob)
	}
	return alice, bob, bobTr
}

// TestRealSocketSessionIdleDeath: a punched session on real sockets
// whose peer vanishes must be declared dead by §3.6 idle detection,
// surfacing as ErrSessionDead on the Conn.
func TestRealSocketSessionIdleDeath(t *testing.T) {
	alice, bob, bobTr := realPairKeepAlive(t, false)
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if c, err := ln.AcceptConn(); err == nil {
			_ = c
		}
	}()
	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Path() == "relay" {
		t.Fatalf("loopback peers should punch directly, got %s", conn.Path())
	}

	// Bob vanishes without a goodbye: socket closed, timers silenced.
	bobTr.Close()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64)
	_, err = conn.Read(buf)
	if !errors.Is(err, ErrSessionDead) {
		t.Fatalf("read after peer death = %v, want ErrSessionDead", err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("write after peer death = %v, want ErrSessionDead", err)
	}
}

// TestRealSocketRelayKeepAliveAndIdleDeath: a relayed session on real
// sockets (1) stays alive through §3.6 keep-alives across the relay
// while both peers live — even with no application traffic for far
// longer than DeadAfter — and (2) still idle-dies once the peer
// vanishes, the TestRelaySessionIdleDeath guarantee on real sockets.
func TestRealSocketRelayKeepAliveAndIdleDeath(t *testing.T) {
	alice, bob, bobTr := realPairKeepAlive(t, true)
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	echoed := make(chan struct{}, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
		buf := make([]byte, 256)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			conn.Write(buf[:n])
			select {
			case echoed <- struct{}{}:
			default:
			}
		}
	}()

	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Path() != "relay" {
		t.Fatalf("probe-dropped peers should relay, got %s", conn.Path())
	}

	// (1) Idle for 3x DeadAfter: relay keep-alives must hold the
	// session up, and data must still flow afterwards.
	time.Sleep(1500 * time.Millisecond)
	if _, err := conn.Write([]byte("still there?")); err != nil {
		t.Fatalf("write after idle: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("relay echo after idle: %v", err)
	}
	if string(buf[:n]) != "still there?" {
		t.Fatalf("relay echo = %q", buf[:n])
	}

	// (2) Bob vanishes; the relayed session must idle-die.
	bobTr.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(buf); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("read after peer death = %v, want ErrSessionDead", err)
	}
}

// TestDataBeforePunchAckLocksIn covers the UDP reordering case where
// the peer's first data datagram overtakes the punch-ack: with both
// sides punching, the side whose ack is still in flight must accept
// correctly-nonced data as session lock-in instead of dropping it.
func TestDataBeforePunchAckLocksIn(t *testing.T) {
	requireLoopbackUDP(t)
	// A bare socket plays both the rendezvous server and the peer: it
	// acks alice's registration, reads her candidate offer to learn the
	// session nonce, then — without ever sending a check or check-ack —
	// delivers a data datagram from "bob" carrying that nonce.
	fake, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fakeDone := make(chan struct{})
	defer func() {
		fake.Close()
		<-fakeDone
	}()
	go func() {
		defer close(fakeDone)
		buf := make([]byte, 64<<10)
		for {
			n, aliceAddr, err := fake.ReadFromUDP(buf)
			if err != nil {
				return // socket closed: test over
			}
			m, err := proto.Decode(buf[:n])
			if err != nil {
				t.Errorf("undecodable datagram from alice: %v", err)
				return
			}
			var reply *proto.Message
			switch m.Type {
			case proto.TypeRegister:
				pub, err := realudp.ToEndpoint(aliceAddr)
				if err != nil {
					t.Error(err)
					return
				}
				reply = &proto.Message{Type: proto.TypeRegisterOK, Target: m.From, Public: pub}
			case proto.TypeNegotiate:
				if m.Target != "bob" {
					t.Errorf("candidate offer for %q, want bob", m.Target)
				}
				reply = &proto.Message{Type: proto.TypeData, From: "bob", Nonce: m.Nonce, Data: []byte("early bird")}
			default:
				continue // keep-alives
			}
			if _, err := fake.WriteToUDP(proto.Encode(reply, 0), aliceAddr); err != nil {
				return
			}
		}
	}()

	server, err := realudp.ToEndpoint(fake.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newLoopTransport(t)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := Open(tr, "alice", server, WithPunchTimeout(5*time.Second), WithRegisterTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatalf("Dial did not resolve on early data: %v", err)
	}
	if conn.Peer() != "bob" {
		t.Errorf("peer = %q", conn.Peer())
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("Read of the early datagram: %v", err)
	}
	if string(buf[:n]) != "early bird" {
		t.Errorf("got %q", buf[:n])
	}
}
