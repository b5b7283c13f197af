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
// accounting-consistency tests do: every attempt, negotiation, and
// session must be accounted for (zero after a released dial).
func recount(d *Dialer) (attempts, negotiations, sessions int) {
	d.tr.Invoke(func() {
		attempts = d.client.PendingUDPAttempts() + d.client.PendingTCPAttempts()
		negotiations = d.agent.PendingNegotiations()
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
	if a, n, _ := recount(alice); a+n == 0 {
		t.Fatalf("expected an in-flight attempt before cancel (attempts=%d negotiations=%d)", a, n)
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
	attempts, negotiations, sessions := recount(alice)
	if attempts != 0 || negotiations != 0 || sessions != 0 {
		t.Fatalf("engine state leaked after cancel: attempts=%d negotiations=%d sessions=%d",
			attempts, negotiations, sessions)
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
	dropProbes(open("bob"))
	return alice
}

// TestDialSupersededConn pins the error a Conn surfaces when the
// engine replaces its session with a newer one to the same peer (the
// peer re-dialed): ErrSuperseded, distinguishable from a genuine
// §3.6 idle death yet still matching errors.Is(err, ErrSessionDead),
// with the abandoned Conn's read-deadline timer stopped rather than
// left firing until its wall-clock deadline.
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
	defer accept().Close()

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
}
