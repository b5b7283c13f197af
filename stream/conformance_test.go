package stream_test

// Differential conformance for the stream layer: the same multi-
// megabit reliable transfers run once over the deterministic simulator
// and once over real UDP sockets on loopback, and must arrive byte-
// identical in both worlds — on a punched direct path, on the §2.2
// relay floor, and across a transfer that spans BOTH a live
// relay→direct upgrade and a §3.6 failback retreat to the relay.
// The blackouts that force failback are modeled with the two
// backends' mirrored chaos knobs: simnet.World.SetPacketFilter on the
// fabric, realudp.Transport.SetPacketFilter at the sockets.

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"natpunch"
	"natpunch/realudp"
	"natpunch/rendezvousapi"
	"natpunch/simnet"
	"natpunch/stream"
	"natpunch/transport"
)

// pattern fills a deterministic, offset-identifying byte sequence, so
// any reordering or loss shows up as a byte-level mismatch.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8 + 3)
	}
	return p
}

// world is one backend instantiation of the two-peer scenario.
type world struct {
	alice, bob *natpunch.Dialer
	server     transport.Endpoint
	sim        *simnet.World      // nil on the loopback backend
	trA, trB   *realudp.Transport // nil on the sim backend
}

// baseOpts is the option set shared by both backends.
func baseOpts(extra ...natpunch.Option) []natpunch.Option {
	return append([]natpunch.Option{
		natpunch.WithRelayFallback(),
		natpunch.WithPunchTimeout(1500 * time.Millisecond),
	}, extra...)
}

// simWorld builds the canonical Figure 5 topology over the simulator.
func simWorld(t testing.TB, seed int64, natA, natB simnet.NAT, opts ...natpunch.Option) *world {
	t.Helper()
	w := simnet.NewWorld(seed)
	t.Cleanup(w.Close)
	core := w.Core()
	srv, err := rendezvousapi.Serve(core.AddHost("S", "18.181.0.31").Transport(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	hostA := core.AddSite("NAT-A", natA, "155.99.25.11", "10.0.0.0/24").AddHost("A", "10.0.0.1")
	hostB := core.AddSite("NAT-B", natB, "138.76.29.7", "10.1.1.0/24").AddHost("B", "10.1.1.3")
	alice, err := natpunch.Open(hostA.Transport(), "alice", srv.Endpoint(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alice.Close() })
	bob, err := natpunch.Open(hostB.Transport(), "bob", srv.Endpoint(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bob.Close() })
	return &world{alice: alice, bob: bob, server: srv.Endpoint(), sim: w}
}

// requireLoopbackUDP probes whether UDP over 127.0.0.1 actually
// delivers datagrams; restricted sandboxes sometimes permit binding
// but silently drop loopback traffic.
func requireLoopbackUDP(t testing.TB) {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("UDP loopback unavailable: %v", err)
	}
	defer c.Close()
	if _, err := c.WriteToUDP([]byte("probe"), c.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Skipf("UDP loopback send failed: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := c.ReadFromUDP(make([]byte, 16)); err != nil {
		t.Skipf("UDP loopback does not deliver datagrams: %v", err)
	}
}

// loopWorld builds the scenario over real loopback sockets.
func loopWorld(t testing.TB, opts ...natpunch.Option) *world {
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
	open := func(name string) (*natpunch.Dialer, *realudp.Transport) {
		tr, err := realudp.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		d, err := natpunch.Open(tr, name, srv.Endpoint(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d, tr
	}
	w := &world{server: srv.Endpoint()}
	w.alice, w.trA = open("alice")
	w.bob, w.trB = open("bob")
	return w
}

// severDirect blacks out every path between the two peers that does
// not traverse the rendezvous/relay server — the §3.6 failback
// scenario — using the backend's chaos knob.
func (w *world) severDirect() {
	if w.sim != nil {
		server := w.server.Addr
		w.sim.SetPacketFilter(func(src, dst transport.Endpoint) bool {
			return src.Addr == server || dst.Addr == server
		})
		return
	}
	// Loopback: every endpoint shares 127.0.0.1, so the peers are told
	// apart by port. Dropping inbound datagrams sourced from the other
	// client's socket severs the direct path at both ends while server
	// and relay traffic (whatever port the relay allocated) flows.
	portA := transport.Port(w.trA.LocalAddr().Port)
	portB := transport.Port(w.trB.LocalAddr().Port)
	w.trA.SetPacketFilter(func(src transport.Endpoint) bool { return src.Port != portB })
	w.trB.SetPacketFilter(func(src transport.Endpoint) bool { return src.Port != portA })
}

// classOf reduces a path to its conformance outcome class.
func classOf(path string) string {
	if path == "relay" {
		return "relay"
	}
	return "direct"
}

// acceptResult is the accept side's view of one transfer.
type acceptResult struct {
	data []byte
	path string
	sess *stream.Session
	err  error
}

// acceptTransfer accepts one session on ln, drains the peer's first
// stream to EOF, then answers with reverse bytes on a fresh stream.
func acceptTransfer(ln *natpunch.Listener, reverse int) <-chan acceptResult {
	ch := make(chan acceptResult, 1)
	go func() {
		var res acceptResult
		defer func() { ch <- res }()
		conn, err := ln.AcceptConn()
		if err != nil {
			res.err = err
			return
		}
		sess, err := stream.NewSession(conn)
		if err != nil {
			res.err = err
			return
		}
		res.sess = sess
		st, err := sess.AcceptStream()
		if err != nil {
			res.err = err
			return
		}
		st.SetReadDeadline(time.Now().Add(120 * time.Second))
		res.data, res.err = io.ReadAll(st)
		if res.err != nil {
			return
		}
		res.path = conn.Path()
		if reverse > 0 {
			back, err := sess.OpenStream()
			if err != nil {
				res.err = err
				return
			}
			back.SetWriteDeadline(time.Now().Add(120 * time.Second))
			if _, err := back.Write(pattern(reverse)); err != nil {
				res.err = err
				return
			}
			res.err = back.CloseWrite()
		}
	}()
	return ch
}

// transfer runs size bytes alice→bob on one stream and reverse bytes
// bob→alice on another, verifying byte-exact arrival in both
// directions, and returns the established path from both perspectives.
func transfer(t *testing.T, w *world, size, reverse int) (dialPath, acceptPath string) {
	t.Helper()
	ln, err := w.bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	resCh := acceptTransfer(ln, reverse)

	conn, err := w.alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sess, err := stream.NewSession(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st.SetWriteDeadline(time.Now().Add(120 * time.Second))
	want := pattern(size)
	if _, err := st.Write(want); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if reverse > 0 {
		back, err := sess.AcceptStream()
		if err != nil {
			t.Fatalf("accept reverse stream: %v", err)
		}
		back.SetReadDeadline(time.Now().Add(120 * time.Second))
		got, err := io.ReadAll(back)
		if err != nil {
			t.Fatalf("read reverse stream: %v", err)
		}
		if !bytes.Equal(got, pattern(reverse)) {
			t.Fatalf("reverse transfer corrupted: %d bytes", len(got))
		}
	}
	res := <-resCh
	if res.sess != nil {
		defer res.sess.Close()
	}
	if res.err != nil {
		t.Fatalf("accept side: %v", res.err)
	}
	if !bytes.Equal(res.data, want) {
		t.Fatalf("forward transfer corrupted: got %d bytes, want %d", len(res.data), len(want))
	}
	return conn.Path(), res.path
}

const megabyte = 1 << 20

// TestStreamConformanceDirect: a 1 MB bidirectional exchange over a
// punched direct path must be byte-identical on the simulator and on
// real loopback sockets.
func TestStreamConformanceDirect(t *testing.T) {
	sim := simWorld(t, 42, simnet.Cone(), simnet.Cone(), baseOpts()...)
	simDial, simAccept := transfer(t, sim, megabyte, 64<<10)

	loop := loopWorld(t, baseOpts()...)
	loopDial, loopAccept := transfer(t, loop, megabyte, 64<<10)

	for _, c := range []struct{ name, sim, loop string }{
		{"dial side", simDial, loopDial},
		{"accept side", simAccept, loopAccept},
	} {
		if classOf(c.sim) != "direct" || classOf(c.loop) != "direct" {
			t.Errorf("%s: outcome classes diverge or are not direct: sim=%s loop=%s", c.name, c.sim, c.loop)
		}
	}
}

// TestStreamConformanceRelay: the same exchange forced onto the §2.2
// relay floor — symmetric NATs on the simulator, a direct-path
// blackout on loopback — must also be byte-identical in both worlds.
func TestStreamConformanceRelay(t *testing.T) {
	sim := simWorld(t, 42, simnet.Symmetric(), simnet.Symmetric(), baseOpts()...)
	simDial, simAccept := transfer(t, sim, megabyte, 64<<10)

	loop := loopWorld(t, baseOpts()...)
	loop.severDirect() // before the dial: punching can never succeed
	loopDial, loopAccept := transfer(t, loop, megabyte, 64<<10)

	for _, c := range []struct{ name, sim, loop string }{
		{"dial side", simDial, loopDial},
		{"accept side", simAccept, loopAccept},
	} {
		if c.sim != "relay" || c.loop != "relay" {
			t.Errorf("%s: expected the relay floor in both worlds: sim=%s loop=%s", c.name, c.sim, c.loop)
		}
	}
}

// pathRecorder collects WithOnPathChange firings.
type pathRecorder struct {
	mu     sync.Mutex
	events []string // "old->new"
}

func (r *pathRecorder) hook(peer, old, new string) {
	r.mu.Lock()
	r.events = append(r.events, old+"->"+new)
	r.mu.Unlock()
}

func (r *pathRecorder) classes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// migrationOpts is the relay-first option set with §3.6 clocks short
// enough that a blackout is declared within seconds.
func migrationOpts(rec *pathRecorder) []natpunch.Option {
	return baseOpts(
		natpunch.WithRelayFirst(),
		natpunch.WithKeepAlive(500*time.Millisecond, 2*time.Second),
		natpunch.WithOnPathChange(rec.hook),
	)
}

// runMigrationFailback drives one transfer that spans the session's
// whole path lifecycle: it starts on the relay (relay-first dial),
// keeps writing through the live relay→direct upgrade, then — after a
// direct-path blackout — through the §3.6 failback retreat to the
// relay, and verifies the receiver got every byte exactly once, in
// order. Returns the recorder's transition log.
func runMigrationFailback(t *testing.T, w *world, rec *pathRecorder) []string {
	t.Helper()
	ln, err := w.bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	resCh := acceptTransfer(ln, 0)

	conn, err := w.alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sess, err := stream.NewSession(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	// Write in chunks, watching the live path between chunks. Phase 1
	// runs until the background punch upgrades the session off the
	// relay; phase 2 (after the blackout) until failback puts it back.
	// Small chunks and generous deadlines: under the race detector on
	// a loaded machine the punch and the keep-alive clocks stretch,
	// and this test is about byte-exactness across transitions, not
	// about how fast the transitions come.
	var sent bytes.Buffer
	chunk := pattern(4 << 10)
	writeChunk := func() {
		t.Helper()
		st.SetWriteDeadline(time.Now().Add(120 * time.Second))
		if _, err := st.Write(chunk); err != nil {
			t.Fatalf("write on %s path after %d bytes: %v", conn.Path(), sent.Len(), err)
		}
		sent.Write(chunk)
	}
	waitPathClass := func(phase, want string) {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for classOf(conn.Path()) != want {
			if !time.Now().Before(deadline) {
				t.Fatalf("%s: path stuck at %q, want class %q", phase, conn.Path(), want)
			}
			writeChunk()
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The simulator's clock does not wait for this goroutine: the
	// background punch may have upgraded the session before Path is
	// read. Then the recorder must show it left the relay to get there.
	if got := conn.Path(); got != "relay" {
		if ev := rec.classes(); len(ev) == 0 || !strings.HasPrefix(ev[0], "relay->") {
			t.Fatalf("relay-first dial started on %q (transitions %v), want relay", got, ev)
		}
	}
	writeChunk()
	waitPathClass("upgrade", "direct")
	writeChunk()
	w.severDirect()
	waitPathClass("failback", "relay")
	writeChunk()
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	res := <-resCh
	if res.sess != nil {
		defer res.sess.Close()
	}
	if res.err != nil {
		t.Fatalf("accept side: %v", res.err)
	}
	if !bytes.Equal(res.data, sent.Bytes()) {
		t.Fatalf("transfer across upgrade+failback corrupted: got %d bytes, want %d",
			len(res.data), sent.Len())
	}
	if res.path != "relay" {
		t.Errorf("accept side finished on %q, want relay after failback", res.path)
	}
	return rec.classes()
}

// requireTransitions asserts the recorder saw an upgrade off the relay
// and then a failback onto it.
func requireTransitions(t *testing.T, backend string, events []string) {
	t.Helper()
	var upgraded, failedBack bool
	for _, e := range events {
		if !upgraded && len(e) > 7 && e[:7] == "relay->" {
			upgraded = true
			continue
		}
		if upgraded && len(e) > 7 && e[len(e)-7:] == "->relay" {
			failedBack = true
		}
	}
	if !upgraded || !failedBack {
		t.Errorf("%s: path transitions %v missed upgrade and/or failback", backend, events)
	}
}

// TestStreamMigrationFailback is the tentpole's flagship scenario on
// both backends: one reliable transfer riding a session through
// relay-first start, live direct upgrade, and §3.6 failback, with
// zero byte loss or reordering.
func TestStreamMigrationFailback(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		rec := &pathRecorder{}
		w := simWorld(t, 42, simnet.Cone(), simnet.Cone(), migrationOpts(rec)...)
		requireTransitions(t, "sim", runMigrationFailback(t, w, rec))
	})
	t.Run("loopback", func(t *testing.T) {
		rec := &pathRecorder{}
		w := loopWorld(t, migrationOpts(rec)...)
		requireTransitions(t, "loopback", runMigrationFailback(t, w, rec))
	})
}

// TestStreamSimOutcomeDeterminism re-runs the same seeded sim scenario
// and requires identical outcomes. (Exact event-schedule determinism
// is pinned at the engine tier by TestDeterministicSchedule in
// internal/stream; this pins the facade-visible outcome.)
func TestStreamSimOutcomeDeterminism(t *testing.T) {
	run := func() (string, string) {
		w := simWorld(t, 77, simnet.Cone(), simnet.Symmetric(), baseOpts()...)
		return transfer(t, w, 256<<10, 32<<10)
	}
	d1, a1 := run()
	d2, a2 := run()
	if d1 != d2 || a1 != a2 {
		t.Fatalf("same seed diverged: run1=(%s,%s) run2=(%s,%s)", d1, a1, d2, a2)
	}
}

// TestSessionWakeZeroAlloc: however many readable/writable events an
// entry raises, they cost one wake-up when it ends and no allocation.
func TestSessionWakeZeroAlloc(t *testing.T) {
	w := loopWorld(t, baseOpts()...)
	ln, err := w.bob.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go ln.AcceptConn()
	conn, err := w.alice.Dial("bob")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sess, err := stream.NewSession(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	events := func() {
		sess.EngineEvent()
		sess.EngineEvent()
		sess.EngineEvent()
	}
	entry := func() { w.trA.Invoke(events) }
	entry()
	before := sess.Wakeups()
	if allocs := testing.AllocsPerRun(200, entry); allocs != 0 {
		t.Errorf("an entry raising three events allocates %v/op, want 0", allocs)
	}
	if n := sess.Wakeups() - before; n != 201 {
		t.Errorf("201 entries of three events each woke the waiters %d times, want once each", n)
	}
}
