package natpunch

// Context-plumbing tests: cancelling DialContext mid-negotiation must
// release the attempt on both transports — no lingering engine
// attempts or negotiations, no half-made sessions, no leaked
// goroutines — with the engine's own accounting hooks as the
// fleet-style recount.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"natpunch/simnet"
)

// recount sums a dialer's in-flight engine state the way the fleet's
// accounting-consistency tests do: every attempt (negotiations
// included) and session must be accounted for (zero after a released
// dial).
func recount(d *Dialer) (attempts, sessions int) {
	d.tr.Invoke(func() {
		attempts = d.client.PendingUDPAttempts() + d.client.PendingTCPAttempts()
		sessions = d.client.UDPSessionCount()
	})
	return
}

// cancelMidNegotiation dials an unpunchable peer with an effectively
// infinite deadline, cancels while checks are in flight, and verifies
// the attempt is fully released.
func cancelMidNegotiation(t *testing.T, alice *Dialer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := alice.DialContext(ctx, "bob")
		errCh <- err
	}()
	// Let the negotiation get genuinely under way before cancelling.
	time.Sleep(150 * time.Millisecond)
	if a, _ := recount(alice); a == 0 {
		t.Fatalf("expected an in-flight attempt before cancel (attempts=%d)", a)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DialContext after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DialContext did not return after cancel")
	}
	attempts, sessions := recount(alice)
	if attempts != 0 || sessions != 0 {
		t.Fatalf("engine state leaked after cancel: attempts=%d sessions=%d", attempts, sessions)
	}
}

// The subtests below keep the name "ice": every dial now runs the
// candidate negotiation, which was the ice mode of the plain/ice pairs.
func TestDialContextCancelSim(t *testing.T) {
	t.Run("ice", func(t *testing.T) {
		// Symmetric NATs on both sides: checks run and run but never
		// converge, so the dial hangs until cancelled.
		alice, _, _, _ := simPair(t, simnet.Symmetric(), simnet.Symmetric(), WithPunchTimeout(10*time.Hour))
		cancelMidNegotiation(t, alice)
	})
}

// TestDialRelayAtPunchTimeout pins that WithPunchTimeout bounds the
// candidate negotiation: symmetric<->symmetric checks never converge,
// so the dial falls to the relay at the deadline — not before it, and
// not a whole extra second after it.
func TestDialRelayAtPunchTimeout(t *testing.T) {
	const timeout = 3 * time.Second
	alice, bob, _, w := simPair(t, simnet.Symmetric(), simnet.Symmetric(),
		WithRelayFallback(), WithPunchTimeout(timeout))
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	echoAccept(t, ln)

	start := w.Now()
	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	took := w.Now() - start
	if conn.Path() != "relay" {
		t.Fatalf("symmetric<->symmetric dial took path %s, want relay", conn.Path())
	}
	if took < timeout || took >= timeout+time.Second {
		t.Fatalf("dial fell to the relay after %v of virtual time, want [%v, %v)", took, timeout, timeout+time.Second)
	}
	t.Logf("relay after %v of virtual time", took)
}

func TestDialContextCancelRealUDP(t *testing.T) {
	requireLoopbackUDP(t)
	baseline := runtime.NumGoroutine()
	t.Run("ice", func(t *testing.T) {
		cancelMidNegotiation(t, makeRealPairLongDial(t))
	})
	// After the per-test cleanups ran, the transports' read loops and
	// timers must be gone: no goroutine leaks.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, now %d — dial cancellation leaked", baseline, runtime.NumGoroutine())
}

// makeRealPairLongDial is makeRealPair with an effectively infinite
// punch deadline and bob dropping probes, so alice's dial to bob hangs
// mid-negotiation until cancelled. It returns alice.
func makeRealPairLongDial(t *testing.T) *Dialer {
	t.Helper()
	serverTr, err := newLoopTransport(t)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serveLoop(t, serverTr)
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string) *Dialer {
		tr, err := newLoopTransport(t)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Open(tr, name, srv.Endpoint(), WithPunchTimeout(10*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	alice := open("alice")
	severDirect(open("bob"), alice)
	return alice
}

// TestDialSupersededConn pins the error a Conn surfaces when the
// engine replaces its session with a newer one to the same peer (the
// peer re-dialed): ErrSuperseded, distinguishable from a genuine
// §3.6 idle death yet still matching errors.Is(err, ErrSessionDead),
// with the abandoned Conn's read-deadline timer stopped rather than
// left firing until its wall-clock deadline, and the new session's
// datagrams reaching the new Conn only.
func TestDialSupersededConn(t *testing.T) {
	alice, bob, _, _ := simPair(t, simnet.Cone(), simnet.Cone())
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan *Conn, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			acceptCh <- c.(*Conn)
		}
	}()
	accept := func() *Conn {
		t.Helper()
		select {
		case c := <-acceptCh:
			return c
		case <-time.After(10 * time.Second):
			t.Fatal("accept timed out")
			return nil
		}
	}

	conn1, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	bconn1 := accept()
	bconn1.SetReadDeadline(time.Now().Add(time.Hour))
	readErr := make(chan error, 1)
	go func() {
		_, err := bconn1.Read(make([]byte, 16))
		readErr <- err
	}()

	// Alice departs silently and re-dials: bob's engine replaces the
	// session in place, retiring bconn1.
	conn1.Close()
	conn2, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	bconn2 := accept()
	defer bconn2.Close()

	select {
	case err := <-readErr:
		if !errors.Is(err, ErrSuperseded) {
			t.Fatalf("superseded read = %v, want ErrSuperseded", err)
		}
		if !errors.Is(err, ErrSessionDead) {
			t.Fatalf("errors.Is(%v, ErrSessionDead) = false, want compatibility to hold", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read on superseded conn never returned")
	}
	// The compatibility is one-way: a genuine idle death must not
	// read as superseded.
	if errors.Is(ErrSessionDead, ErrSuperseded) {
		t.Error("ErrSessionDead matches ErrSuperseded; the errors must stay distinguishable")
	}
	if _, err := bconn1.Write([]byte("x")); !errors.Is(err, ErrSuperseded) {
		t.Errorf("superseded write = %v, want ErrSuperseded", err)
	}
	bconn1.mu.Lock()
	timer := bconn1.rdlTimer
	bconn1.mu.Unlock()
	if timer != nil {
		t.Error("superseded conn still holds a live read-deadline timer")
	}

	// The re-dialed session's traffic reaches bob's new Conn, and only
	// it: the superseded Conn stays bound to its dead session.
	if _, err := conn2.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	bconn2.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 16)
	n, err := bconn2.Read(buf)
	if err != nil || string(buf[:n]) != "after" {
		t.Fatalf("new conn read = %q, %v; want \"after\"", buf[:n], err)
	}
	bconn1.mu.Lock()
	stale := len(bconn1.inbox)
	bconn1.mu.Unlock()
	if stale != 0 {
		t.Errorf("superseded conn queued %d datagrams of the new session", stale)
	}
}
