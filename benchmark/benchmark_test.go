package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"natpunch/internal/proto"
	"natpunch/relayapi"
	"natpunch/transport"
)

func TestSummarizeMedianAndSupportedTail(t *testing.T) {
	sample := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // 1..n, unsorted
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		p50   float64
		tailP float64 // highest ladder percentile with >= 10 samples beyond it
		tail  float64
	}{
		{n: 20, p50: 10.5, tailP: 0},
		{n: 40, p50: 20.5, tailP: 75, tail: 30.25},
		{n: 101, p50: 51, tailP: 90, tail: 91},
		{n: 1001, p50: 501, tailP: 99, tail: 991},
		{n: 10001, p50: 5001, tailP: 99.9, tail: 9991},
	} {
		d := summarize(sample(tc.n))
		if d.N != tc.n || d.P50 != tc.p50 || d.TailP != tc.tailP || math.Abs(d.Tail-tc.tail) > 1e-6 {
			t.Errorf("n=%d: got n=%d p50=%v tail p%v=%v, want p50=%v tail p%v=%v",
				tc.n, d.N, d.P50, d.TailP, d.Tail, tc.p50, tc.tailP, tc.tail)
		}
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 {
		t.Errorf("empty sample: %+v", d)
	}
	r := readingOf("us", []float64{9, 10, 12})
	if r.Value != 10 || r.Min != 9 || r.Max != 12 || r.N != 3 || r.spread() != 0.3 {
		t.Errorf("readingOf: %+v spread %v", r, r.spread())
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.invoke", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "realudp.sendto", Start: 15, End: 25},
		{ID: 4, Parent: 2, Name: "realudp.sendto", Start: 30, End: 35},
		{ID: 5, Parent: 1, Name: "client.invoke", Start: 60, End: 120}, // runs past its parent: clipped to 40
		{ID: 6, Name: "server.recv", Start: 200, End: 230},             // a root of its own
		{ID: 7, Parent: 99, Name: "realudp.sendto", Start: 0, End: 7},  // parent not sampled
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"op":             100 - 30 - 40,
		"client.invoke":  (30 - 15) + 60,
		"realudp.sendto": 10 + 5 + 7,
		"server.recv":    30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestMemNetSerializes(t *testing.T) {
	n := newMemNet()
	a, b := n.host("10.0.0.1", 1), n.host("10.0.0.2", 2)
	ca, _ := a.BindUDP(0)
	cb, _ := b.BindUDP(9)
	if ss, ok := ca.(transport.ScratchSender); !ok || !ss.ScratchSendOK() {
		t.Fatal("memConn must advertise ScratchSendOK: it copies on send")
	}

	var log []string
	inA := false
	cb.OnRecv(func(from transport.Endpoint, p []byte) {
		if inA {
			t.Error("b's callback ran inside a's: delivery re-entered")
		}
		if from != ca.Local() {
			t.Errorf("from = %v, want %v", from, ca.Local())
		}
		log = append(log, "b:"+string(p))
		if string(p) == "1" {
			cb.SendTo(ca.Local(), []byte("pong"))
		}
	})
	ca.OnRecv(func(_ transport.Endpoint, p []byte) { log = append(log, "a:"+string(p)) })

	// Two sends from inside one callback: queued, delivered in order
	// after it returns, and copied — the sender reuses its buffer.
	a.Invoke(func() {
		inA = true
		buf := []byte("1")
		ca.SendTo(cb.Local(), buf)
		buf[0] = '2'
		ca.SendTo(cb.Local(), buf)
		buf[0] = 'X'
		if len(log) != 0 {
			t.Error("a datagram was delivered before the sending callback returned")
		}
		inA = false
	})
	if got := len(log); got != 3 || log[0] != "b:1" || log[1] != "b:2" || log[2] != "a:pong" {
		t.Fatalf("delivery order %v, want [b:1 b:2 a:pong]", log)
	}

	// Entering the engine from inside a callback breaks the contract.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Invoke inside a callback did not panic")
			}
			n.busy = false
		}()
		a.Invoke(func() { b.Invoke(func() {}) })
	}()

	// Timers: deadline order, then creation order; the clock jumps to
	// each deadline; a stopped timer never fires.
	var fired []string
	var stopped transport.Timer
	a.Invoke(func() {
		a.After(30*time.Millisecond, func() { fired = append(fired, "30") })
		a.After(10*time.Millisecond, func() { fired = append(fired, "10a") })
		b.After(10*time.Millisecond, func() {
			fired = append(fired, "10b")
			cb.SendTo(ca.Local(), []byte("late")) // a timer's sends are delivered before the next timer
		})
		stopped = a.After(20*time.Millisecond, func() { fired = append(fired, "20") })
	})
	if !stopped.Active() || !stopped.Stop() || stopped.Active() || stopped.Stop() {
		t.Error("Stop/Active on a pending timer misbehave")
	}
	log = nil
	for n.step() {
	}
	if len(fired) != 3 || fired[0] != "10a" || fired[1] != "10b" || fired[2] != "30" {
		t.Errorf("timers fired %v, want [10a 10b 30]", fired)
	}
	if a.Now() != 30*time.Millisecond || b.Now() != a.Now() {
		t.Errorf("clock at %v, want 30ms", a.Now())
	}
	if len(log) != 1 || log[0] != "a:late" {
		t.Errorf("timer-sent datagram: %v", log)
	}

	// Datagrams to nobody and dropped datagrams are counted, not kept.
	n.drop = func(to transport.Endpoint) bool { return to == cb.Local() }
	a.Invoke(func() {
		ca.SendTo(cb.Local(), []byte("x"))
		ca.SendTo(transport.MustParseEndpoint("10.9.9.9:1"), []byte("y"))
	})
	if n.dropped != 1 || n.unbound != 1 {
		t.Errorf("dropped=%d unbound=%d, want 1 and 1", n.dropped, n.unbound)
	}
}

// plainTransport hides every optional capability of the transport it
// embeds.
type plainTransport struct{ transport.Transport }

type waiterTransport struct {
	transport.Transport
	waiters int
}

func (w *waiterTransport) AddWaiter()    { w.waiters++ }
func (w *waiterTransport) RemoveWaiter() { w.waiters-- }

func TestDecoratedTransportKeepsCapabilities(t *testing.T) {
	n := newMemNet()
	tr := newTracer()

	// Waiter is forwarded exactly when the inner transport has it.
	if _, ok := tr.wrap(roleClient, plainTransport{n.host("10.0.0.9", 1)}, wrapOpts{}).(transport.Waiter); ok {
		t.Error("decorated transport claims Waiter though the inner one has none")
	}
	inner := &waiterTransport{Transport: n.host("10.0.0.8", 1)}
	w, ok := tr.wrap(roleClient, inner, wrapOpts{}).(transport.Waiter)
	if !ok {
		t.Fatal("decorated transport dropped the inner transport's Waiter")
	}
	w.AddWaiter()
	if inner.waiters != 1 {
		t.Error("AddWaiter was not forwarded")
	}
	w.RemoveWaiter()

	// ScratchSendOK is forwarded, so a relay served over a decorated
	// transport still re-encodes into its scratch buffer: forwarding
	// allocates nothing.
	seam := tr.wrap(roleServer, n.host("10.0.0.1", 1), wrapOpts{every: 1 << 30})
	srv, err := relayapi.Serve(seam, 7000, relayapi.WithTTL(-1))
	if err != nil {
		t.Fatal(err)
	}
	conn := n.conns[srv.Endpoint()]
	alice, bob := transport.MustParseEndpoint("10.0.0.2:5000"), transport.MustParseEndpoint("10.0.0.3:5000")
	bound, _ := n.host("10.0.0.3", 2).BindUDP(5000) // bob is really there: the forward is queued and delivered
	delivered := 0
	bound.OnRecv(func(transport.Endpoint, []byte) { delivered++ })
	conn.feed(alice, proto.Encode(&proto.Message{Type: proto.TypeRegister, From: "alice"}, 0))
	conn.feed(bob, proto.Encode(&proto.Message{Type: proto.TypeRegister, From: "bob"}, 0))
	wire := proto.Encode(&proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: 1, Data: make([]byte, 64)}, 0)
	conn.feed(alice, wire) // first forward sizes the scratch buffers
	delivered = 0
	if allocs := testing.AllocsPerRun(200, func() { conn.feed(alice, wire) }); allocs != 0 {
		t.Errorf("relay forward over a decorated transport allocates %v per datagram, want 0", allocs)
	}
	if delivered != 201 {
		t.Errorf("bob received %d forwards, want 201", delivered)
	}
	st := tr.snapshot()[roleServer]
	if st[recvN] != 204 || st[sendN] != 204 || st[recvSendNs] > st[recvNs] {
		t.Errorf("server seam counted recv=%d send=%d (nested send %dns of %dns)", st[recvN], st[sendN], st[recvSendNs], st[recvNs])
	}
}

func TestPatternIdentifiesOffsets(t *testing.T) {
	p := newPattern(rand.New(rand.NewSource(1)))
	whole := make([]byte, 0, 3*bulkChunk)
	for off := int64(0); off < 3*bulkChunk; off += bulkChunk {
		whole = append(whole, p.at(off, bulkChunk)...)
	}
	// Reading the same stream at another segmentation sees the same
	// bytes; a chunk-sized hole or swap does not.
	for off, step := int64(0), 1000; off+int64(step) <= int64(len(whole)); off += int64(step) {
		if !bytes.Equal(whole[off:off+int64(step)], p.at(off, step)) {
			t.Fatalf("pattern at %d disagrees with itself", off)
		}
	}
	if bytes.Equal(p.at(0, bulkChunk), p.at(bulkChunk, bulkChunk)) {
		t.Error("consecutive chunks are identical: a lost chunk would go unseen")
	}
}

func TestVerdict(t *testing.T) {
	rd := func(v, lo, hi float64) reading { return reading{Value: v, Min: lo, Max: hi, N: 3} }
	for _, tc := range []struct {
		name           string
		parent, change reading
		better         string
		want           string
	}{
		{"within bound", rd(100, 99, 101), rd(95, 94, 96), "higher", "ok"},
		{"throughput fell", rd(100, 99, 101), rd(80, 79, 81), "higher", "regressed"},
		{"latency rose", rd(100, 99, 101), rd(120, 119, 121), "lower", "regressed"},
		{"latency fell", rd(100, 99, 101), rd(50, 49, 51), "lower", "ok"},
		{"too noisy to say", rd(100, 80, 120), rd(85, 84, 86), "higher", "unresolved"},
		{"noisy but every rep better", rd(100, 80, 120), rd(200, 150, 250), "higher", "ok"},
	} {
		if _, got := verdict(tc.parent, tc.change, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps ../BENCHMARK.json and the
// tables in report.go and workloads.go the same list.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var bounded []*workload
	for _, w := range workloads {
		if !w.extra {
			bounded = append(bounded, w)
		}
	}
	if len(f.Workloads) != len(bounded) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(bounded))
	}
	for i, w := range bounded {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := f.EndToEnd[i]
		if (metricDef{g.Name, g.Unit, g.Better}) != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %v, the program %v", i, g, d)
		}
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		g := f.PerLayer[i]
		if (metricDef{g.Name, g.Unit, g.Better}) != d {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %v, the program %v", i, g, d)
		}
	}
}
