package natpunch

// Facade coverage for relay-first connect and live path migration:
// Dial returns a relay-backed Conn immediately, the background punch
// upgrades the same Conn in place (live Path()/RemoteAddr(), the
// WithOnPathChange hook), the datagram stream survives the cutover
// intact, and sessions that can never punch stay quietly on the
// relay. Also pins the session-lifecycle fixes that ride along:
// consumed inbox datagrams and accepted Conns are released, and
// inbound sessions racing Dialer.Close are torn down instead of
// leaking in the pending queue.

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"natpunch/simnet"
	"natpunch/transport"
)

// pathRecorder collects WithOnPathChange firings.
type pathRecorder struct {
	mu     sync.Mutex
	events []pathEvent
}

type pathEvent struct{ peer, old, new string }

func (r *pathRecorder) hook(peer, old, new string) {
	r.mu.Lock()
	r.events = append(r.events, pathEvent{peer, old, new})
	r.mu.Unlock()
}

func (r *pathRecorder) snapshot() []pathEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]pathEvent(nil), r.events...)
}

// waitConnPath polls a live Conn.Path() until it reports want. The
// poller keeps a deadline-bounded Read blocked so virtual time keeps
// flowing on simulated transports.
func waitConnPath(t *testing.T, c *Conn, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Path() == want {
			return
		}
		c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		c.Read(make([]byte, 1))
	}
	t.Fatalf("Path() = %q after %v, want %q", c.Path(), timeout, want)
}

func TestFacadeRelayFirstUpgrade(t *testing.T) {
	// WithRelayFirst end to end: the dialed Conn starts on the relay,
	// a stream of sequenced datagrams flows while the background punch
	// completes, and the same Conn ends up on the direct path with
	// every datagram delivered exactly once, in order.
	rec := &pathRecorder{}
	alice, bob, _, _ := simPair(t, simnet.Cone(), simnet.Cone(),
		WithRelayFirst(), WithOnPathChange(rec.hook))
	ln, err := bob.Listen()
	if err != nil {
		t.Fatal(err)
	}

	acceptCh := make(chan *Conn, 1)
	var got []uint32
	var gotMu sync.Mutex
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		acceptCh <- conn.(*Conn)
		buf := make([]byte, 64)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if n == 4 {
				gotMu.Lock()
				got = append(got, binary.BigEndian.Uint32(buf[:4]))
				gotMu.Unlock()
			}
		}
	}()

	conn, err := alice.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	initial := conn.Path()

	// Stream sequenced datagrams from the moment the dial returns, so
	// part of the stream rides the relay and part the upgraded path.
	const total = 80
	for i := uint32(1); i <= total; i++ {
		if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}

	var bconn *Conn
	select {
	case bconn = <-acceptCh:
	case <-time.After(10 * time.Second):
		t.Fatal("bob never accepted the relay-first session")
	}
	waitConnPath(t, conn, "public", 15*time.Second)
	waitConnPath(t, bconn, "public", 15*time.Second)

	waitFor := func(cond func() bool) bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			conn.Read(make([]byte, 1))
		}
		return cond()
	}
	if !waitFor(func() bool {
		gotMu.Lock()
		defer gotMu.Unlock()
		return len(got) == total
	}) {
		gotMu.Lock()
		defer gotMu.Unlock()
		t.Fatalf("receiver got %d/%d datagrams across the migration", len(got), total)
	}
	gotMu.Lock()
	for i, seq := range got {
		if seq != uint32(i+1) {
			t.Fatalf("datagram %d has seq %d: loss or reordering across the cutover", i, seq)
		}
	}
	gotMu.Unlock()

	// The upgrade must be observable: the Conn started on the relay
	// (directly, or per the recorded first transition) and the hook
	// saw relay -> public on both endpoints.
	events := rec.snapshot()
	if len(events) == 0 {
		t.Fatal("OnPathChange never fired")
	}
	if initial != "relay" && events[0].old != "relay" {
		t.Errorf("session never observed on the relay (initial=%q first event %+v)", initial, events[0])
	}
	sides := map[string]bool{}
	for _, ev := range events {
		if ev.old == "relay" && ev.new == "public" {
			sides[ev.peer] = true
		}
	}
	if !sides["alice"] || !sides["bob"] {
		t.Errorf("relay->public hook events = %+v, want one per endpoint", events)
	}
	if ra := conn.RemoteAddr().String(); ra == "relay" {
		t.Errorf("RemoteAddr still %q after upgrade", ra)
	}
}

func TestFacadeRelayFirstSymmetricStaysRelay(t *testing.T) {
	// Symmetric<->symmetric cannot punch: the relay-first Conn stays
	// on the relay after the background attempt exhausts — no error,
	// no path event, data still flowing.
	rec := &pathRecorder{}
	alice, bob, _, _ := simPair(t, simnet.Symmetric(), simnet.Symmetric(),
		WithRelayFirst(), WithOnPathChange(rec.hook), WithPunchTimeout(2*time.Second))
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
		t.Fatalf("relay-first dial established on %q, want relay", conn.Path())
	}

	echo := func(msg string) {
		t.Helper()
		if _, err := conn.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 256)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != "echo:"+msg {
			t.Fatalf("got %q", buf[:n])
		}
	}
	echo("before")

	// Ride out the punch timeout (the blocked Read keeps virtual time
	// moving), then confirm nothing changed.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	conn.Read(make([]byte, 1))
	conn.SetReadDeadline(time.Time{})
	echo("after")
	if conn.Path() != "relay" {
		t.Errorf("Path() = %q, want relay to hold", conn.Path())
	}
	for _, ev := range rec.snapshot() {
		t.Errorf("unexpected path event %+v on unpunchable pair", ev)
	}
}

func TestFacadePathUpgradeFailsBack(t *testing.T) {
	// WithPathUpgrade without relay-first: a punched Conn whose direct
	// path goes dark retreats to the relay when §3.6 idle detection
	// fires, and the same Conn keeps carrying datagrams. Without the
	// option the idle death ends the session.
	for _, upgrade := range []bool{true, false} {
		rec := &pathRecorder{}
		opts := []Option{WithRelayFallback(), WithKeepAlive(200*time.Millisecond, time.Second),
			WithOnPathChange(rec.hook)}
		if upgrade {
			opts = append(opts, WithPathUpgrade())
		}
		alice, bob, srv, w := simPair(t, simnet.Cone(), simnet.Cone(), opts...)
		ln, err := bob.Listen()
		if err != nil {
			t.Fatal(err)
		}
		echoAccept(t, ln)
		conn, err := alice.Dial("bob")
		if err != nil {
			t.Fatal(err)
		}
		if conn.Path() != "public" {
			t.Fatalf("upgrade=%v: cone<->cone dialed on %q, want public", upgrade, conn.Path())
		}
		echo := func(msg string) error {
			if _, err := conn.Write([]byte(msg)); err != nil {
				return err
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			buf := make([]byte, 256)
			n, err := conn.Read(buf)
			if err == nil && string(buf[:n]) != "echo:"+msg {
				t.Fatalf("upgrade=%v: got %q, want echo:%s", upgrade, buf[:n], msg)
			}
			return err
		}
		if err := echo("direct"); err != nil {
			t.Fatal(err)
		}

		// Black out every packet that neither comes from nor goes to S.
		server := srv.Endpoint().Addr
		w.SetPacketFilter(func(src, dst transport.Endpoint) bool {
			return src.Addr == server || dst.Addr == server
		})

		if !upgrade {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrSessionDead) {
				t.Fatalf("without WithPathUpgrade: read after blackout = %v, want ErrSessionDead", err)
			}
			conn.Close()
			continue
		}
		waitConnPath(t, conn, "relay", 10*time.Second)
		if err := echo("relayed"); err != nil {
			t.Fatalf("echo after failback: %v", err)
		}
		conn.Close()
		// The hook names the remote peer: alice's Conn reports "bob".
		var failedBack bool
		for _, ev := range rec.snapshot() {
			failedBack = failedBack || ev.peer == "bob" && ev.old == "public" && ev.new == "relay"
		}
		if !failedBack {
			t.Errorf("OnPathChange events %+v, want bob public -> relay on alice's Conn", rec.snapshot())
		}
	}
}

func TestConnReadReleasesConsumedDatagrams(t *testing.T) {
	// Satellite regression: Read used to pop the inbox with
	// c.inbox[1:], leaving every consumed datagram pinned by the
	// backing array for the Conn's lifetime.
	c := &Conn{d: &Dialer{}, peer: "peer"}
	c.cond = sync.NewCond(&c.mu)
	for i := 0; i < 3; i++ {
		c.deliver([]byte{byte(i), 0xAA, 0xBB})
	}
	c.mu.Lock()
	backing := c.inbox // aliases the backing array Read pops from
	c.mu.Unlock()

	buf := make([]byte, 16)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	retained := backing[0]
	c.mu.Unlock()
	if retained != nil {
		t.Error("consumed inbox slot still references its datagram")
	}

	// Draining a burst-grown queue must release the whole backing
	// array, not keep it parked for the next burst.
	for i := 0; i < 40; i++ {
		c.deliver([]byte{byte(i)})
	}
	for i := 0; i < 40+2; i++ { // +2: the two left from the first phase
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	capLeft := cap(c.inbox)
	c.mu.Unlock()
	if capLeft != 0 {
		t.Errorf("drained inbox retains backing array of cap %d", capLeft)
	}
}

func TestAcceptConnReleasesAcceptedConns(t *testing.T) {
	// AcceptConn used to pop the queue with l.queue[1:], so the backing
	// array kept every accepted Conn — with its session and Dialer —
	// reachable until a later append reallocated it.
	l := newListener(&Dialer{})
	for i := 0; i < 3; i++ {
		l.enqueue(&Conn{})
	}
	l.mu.Lock()
	backing := l.queue // aliases the backing array AcceptConn pops from
	l.mu.Unlock()

	if _, err := l.AcceptConn(); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	retained := backing[0]
	l.mu.Unlock()
	if retained != nil {
		t.Error("accepted queue slot still references its Conn")
	}
	for i := 0; i < 2; i++ {
		if _, err := l.AcceptConn(); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	capLeft := cap(l.queue)
	l.mu.Unlock()
	if capLeft != 0 {
		t.Errorf("drained accept queue retains backing array of cap %d", capLeft)
	}
}

func TestInboundRacingCloseIsTornDown(t *testing.T) {
	// Satellite regression: an engine session established while
	// Dialer.Close was draining the pending queue used to be appended
	// back onto it — nothing would ever accept or close it. Run the
	// real race a few times under -race, then pin the closed branch
	// deterministically.
	for _, lag := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond} {
		alice, bob, _, _ := simPair(t, simnet.Cone(), simnet.Cone(),
			WithRelayFirst(), WithPunchTimeout(2*time.Second))
		done := make(chan struct{})
		go func() {
			defer close(done)
			if c, err := alice.Dial("bob"); err == nil {
				c.Close()
			}
		}()
		time.Sleep(lag)
		bob.Close()
		<-done

		bob.mu.Lock()
		pend := len(bob.pending)
		bob.mu.Unlock()
		if pend != 0 {
			t.Fatalf("lag %v: %d conns parked in a closed dialer's pending queue", lag, pend)
		}
		var sessions int
		bob.tr.Invoke(func() { sessions = bob.client.UDPSessionCount() })
		if sessions != 0 {
			t.Fatalf("lag %v: %d engine sessions leaked past Close", lag, sessions)
		}
		alice.Close()
	}

	// Deterministic: an inbound arriving strictly after Close must
	// close its engine session inside the same engine dispatch. The
	// session is a live one (the dialer's own dial), handed to inbound
	// once Close's first step has marked the dialer closed and before
	// its engine shutdown.
	late, _, _, _ := simPair(t, simnet.Cone(), simnet.Cone())
	conn, err := late.Dial("bob")
	if err != nil {
		t.Fatal(err)
	}
	late.mu.Lock()
	late.closed = true
	late.mu.Unlock()
	var sessions int
	late.tr.Invoke(func() {
		late.inbound(late.newUDPConn(conn.sess))
		sessions = late.client.UDPSessionCount()
	})
	late.shutdownEngine()
	if sessions != 0 {
		t.Fatalf("post-Close inbound left %d engine sessions live", sessions)
	}
	late.mu.Lock()
	pend := len(late.pending)
	late.mu.Unlock()
	if pend != 0 {
		t.Fatalf("post-Close inbound re-populated the pending queue (%d)", pend)
	}
}
