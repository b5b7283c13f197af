package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"natpunch"
	"natpunch/internal/proto"
	istream "natpunch/internal/stream"
	"natpunch/realudp"
	"natpunch/relayapi"
	"natpunch/rendezvousapi"
	"natpunch/simnet"
	"natpunch/transport"
)

// The micro-drivers measure each layer alone, with the layers below it
// replaced by memNet (or, for the punch driver, by simnet): the same
// calls the workloads make end to end, minus everything else. They
// run for a fixed number of operations, not a fixed time, and report
// the median of several batches.

// metric is one named reading of a micro-driver or a traced run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples (batches, ops or reps) behind the value
}

type metrics map[string]metric

const microBatches = 7

// nsPerOp times batches of n calls to fn and returns the median
// batch's nanoseconds per call.
func nsPerOp(n int, fn func()) metric {
	per := make([]float64, microBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return metric{Value: median(per), Unit: "ns", N: microBatches * n}
}

// allocsPerOp counts heap allocations per call to fn on this
// goroutine's watch; callers keep other goroutines quiet meanwhile.
func allocsPerOp(n int, fn func()) metric {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return metric{Value: float64(m1.Mallocs-m0.Mallocs) / float64(n), Unit: "count", N: n}
}

// Wire fixtures shared by the proto and rendezvous drivers: the three
// message shapes the hot paths see.
type fixtures struct {
	small     proto.Message // 64-byte RelayTo, relay_small's datagram
	large     proto.Message // RelayTo carrying one full 1152-byte stream datagram
	negotiate proto.Message // candidate-bearing Negotiate
}

func newFixtures(rng *rand.Rand) fixtures {
	payload := make([]byte, 1152)
	rng.Read(payload)
	// One data frame filling a default-MaxDatagram stream datagram.
	frame := istream.AppendFrame(nil, &istream.Frame{Type: proto.TypeStream, Stream: 2, Off: 4096, Data: payload})
	for len(frame) > 1152 {
		payload = payload[:len(payload)-(len(frame)-1152)]
		frame = istream.AppendFrame(frame[:0], &istream.Frame{Type: proto.TypeStream, Stream: 2, Off: 4096, Data: payload})
	}
	ep := func(s string) transport.Endpoint { return transport.MustParseEndpoint(s) }
	return fixtures{
		small: proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: 1, Data: payload[:64]},
		large: proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: 2, Data: frame},
		negotiate: proto.Message{
			Type: proto.TypeNegotiate, From: "alice", Target: "bob", Nonce: rng.Uint64(),
			Candidates: []proto.Candidate{
				{Kind: proto.CandPrivate, Priority: 300, Endpoint: ep("10.0.0.1:4321")},
				{Kind: proto.CandPublic, Priority: 200, Endpoint: ep("155.99.25.11:62000")},
				{Kind: proto.CandRelay, Priority: 100, Endpoint: ep("18.181.0.31:1234")},
			},
		},
	}
}

// runMicro runs every micro-driver. tr, when set, receives the stages
// of the real-socket connect the facade driver makes.
func runMicro(seed int64, tr *tracer) (metrics, error) {
	rng := rand.New(rand.NewSource(seed))
	fx := newFixtures(rng)
	out := metrics{}
	for _, d := range []func(*rand.Rand, fixtures, *tracer, metrics) error{
		microProto, microRealUDP, microRendezvous, microPunch, microEngine, microFacade,
	} {
		if err := d(rng, fx, tr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- proto --------------------------------------------------------

func microProto(_ *rand.Rand, fx fixtures, _ *tracer, out metrics) error {
	var dec proto.Decoder
	var buf []byte
	var wires [][]byte
	for _, f := range []struct {
		name string
		m    *proto.Message
	}{{"small", &fx.small}, {"large", &fx.large}, {"negotiate", &fx.negotiate}} {
		name, m := f.name, f.m
		wire := proto.Encode(m, 0)
		wires = append(wires, wire)
		got, err := dec.Decode(wire)
		if err != nil || got.Type != m.Type || !bytes.Equal(got.Data, m.Data) || len(got.Candidates) != len(m.Candidates) {
			return fmt.Errorf("proto: %s message does not survive a round trip (%v)", name, err)
		}
		if name != "negotiate" {
			out["proto.encode_"+name+"_ns"] = nsPerOp(20000, func() { buf = proto.AppendMessage(buf[:0], m, 0) })
		}
		out["proto.decode_"+name+"_ns"] = nsPerOp(20000, func() { dec.Decode(wire) })
	}
	i := 0
	out["proto.decode_allocs"] = allocsPerOp(30000, func() { dec.Decode(wires[i%len(wires)]); i++ })
	return nil
}

// --- realudp ------------------------------------------------------

func microRealUDP(_ *rand.Rand, fx fixtures, _ *tracer, out metrics) error {
	tr, err := realudp.New(loopback)
	if err != nil {
		return err
	}
	defer tr.Close()
	var conn transport.UDPConn
	tr.Invoke(func() { conn, err = tr.BindUDP(0) })
	if err != nil {
		return err
	}
	var got atomic.Int64
	tr.Invoke(func() { conn.OnRecv(func(transport.Endpoint, []byte) { got.Add(1) }) })

	// A raw peer to send to and from, drained by its own goroutine
	// while the send drivers run.
	raw, err := newRawPeer()
	if err != nil {
		return err
	}
	defer raw.uc.Close()
	rawEP, err := realudp.ToEndpoint(raw.uc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	small, large := proto.Encode(&fx.small, 0), proto.Encode(&fx.large, 0)

	// send: SendTo from an Invoke body, the path a facade Write takes
	// (outside a receive batch, so one sendto(2) per datagram).
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ms := make([]realudp.Datagram, 32)
		for i := range ms {
			ms[i].Payload = make([]byte, 2048)
		}
		for {
			for i := range ms {
				ms[i].Payload = ms[i].Payload[:2048]
			}
			if _, err := raw.bc.ReadBatch(ms); err != nil {
				return
			}
		}
	}()
	for _, f := range []struct {
		name string
		wire []byte
	}{{"small", small}, {"large", large}} {
		per := make([]float64, microBatches+1)
		const n = 2000
		for b := range per {
			tr.Invoke(func() {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					conn.SendTo(rawEP, f.wire)
				}
				per[b] = float64(time.Since(t0)) / n
			})
			time.Sleep(time.Millisecond) // let the drain catch up
		}
		// The first batch warms the socket and the route cache.
		out["realudp.send_"+f.name+"_ns"] = metric{Value: median(per[1:]), Unit: "ns", N: microBatches * n}
	}
	time.Sleep(5 * time.Millisecond)   // the last batch drains
	raw.uc.SetReadDeadline(time.Now()) // stop the drain; the socket stays open
	<-drained
	raw.uc.SetReadDeadline(time.Time{})

	// recv: a 64-datagram burst into the transport's socket, timed from
	// the batched send (loopback delivers inside it) to the burst's
	// last callback, per datagram.
	dst := addrPortOf(conn.Local())
	burst := make([]realudp.Datagram, relayBurst)
	for i := range burst {
		burst[i] = realudp.Datagram{Addr: dst, Payload: small}
	}
	const bursts = 200
	per := make([]float64, 0, bursts)
	for b := 0; b < bursts; b++ {
		want := got.Load() + relayBurst
		t0 := time.Now()
		if _, err := raw.bc.WriteBatch(burst); err != nil {
			return err
		}
		for got.Load() < want {
			if time.Since(t0) > ioTimeout {
				return fmt.Errorf("realudp: a loopback burst was not delivered within %v", ioTimeout)
			}
			runtime.Gosched()
		}
		per = append(per, float64(time.Since(t0))/relayBurst)
	}
	out["realudp.recv_small_ns"] = metric{Value: median(per), Unit: "ns", N: bursts * relayBurst}

	// batch_fill: the same burst read back through BatchConn.ReadBatch
	// with the read loop's 16 slots.
	self := addrPortOf(rawEP)
	for i := range burst {
		burst[i].Addr = self
	}
	slots := make([]realudp.Datagram, 16)
	for i := range slots {
		slots[i].Payload = make([]byte, 2048)
	}
	reads, dgrams := 0, 0
	for b := 0; b < bursts; b++ {
		if _, err := raw.bc.WriteBatch(burst); err != nil {
			return err
		}
		for left := relayBurst; left > 0; {
			for i := range slots {
				slots[i].Payload = slots[i].Payload[:2048]
			}
			raw.uc.SetReadDeadline(time.Now().Add(ioTimeout))
			n, err := raw.bc.ReadBatch(slots)
			if err != nil {
				return fmt.Errorf("realudp: reading a burst back: %w", err)
			}
			left -= n
			reads++
			dgrams += n
		}
	}
	out["realudp.batch_fill"] = metric{Value: float64(dgrams) / float64(reads), Unit: "count", N: reads}

	out["realudp.invoke_ns"] = nsPerOp(50000, func() { tr.Invoke(nopFunc) })
	var timers metric
	tr.Invoke(func() {
		timers = nsPerOp(5000, func() { tr.After(time.Hour, nopFunc).Stop() })
	})
	out["realudp.timer_ns"] = timers
	return nil
}

// --- rendezvous ---------------------------------------------------

func microRendezvous(rng *rand.Rand, fx fixtures, _ *tracer, out metrics) error {
	n := newMemNet()
	alice := transport.MustParseEndpoint("10.0.0.2:5000")
	bob := transport.MustParseEndpoint("10.0.0.3:5000")
	// Neither client has a socket on the net, so whatever a server
	// sends them is counted and dropped: the handler runs alone.
	register := func(c *memConn, name string, from transport.Endpoint) {
		c.feed(from, proto.Encode(&proto.Message{Type: proto.TypeRegister, From: name, Private: from}, 0))
	}

	relay, err := relayapi.Serve(n.host("10.0.0.1", rng.Int63()), 7000, relayapi.WithTTL(-1))
	if err != nil {
		return err
	}
	rc := n.conns[relay.Endpoint()]
	register(rc, "alice", alice)
	register(rc, "bob", bob)
	small, large := proto.Encode(&fx.small, 0), proto.Encode(&fx.large, 0)
	sent := n.sent
	out["rendezvous.relay_small_ns"] = nsPerOp(20000, func() { rc.feed(alice, small) })
	out["rendezvous.relay_large_ns"] = nsPerOp(20000, func() { rc.feed(alice, large) })
	out["rendezvous.relay_allocs"] = allocsPerOp(20000, func() { rc.feed(alice, small) })
	want := uint64((2*microBatches + 1) * 20000)
	if st := relay.Stats(); n.sent-sent != want || st.RelayedMessages != want || st.Errors != 0 {
		return fmt.Errorf("rendezvous: relay forwarded %d of %d datagrams (%d errors)", n.sent-sent, want, st.Errors)
	}

	srv, err := rendezvousapi.Serve(n.host("10.0.1.1", rng.Int63()), 1234, rendezvousapi.WithTTL(-1))
	if err != nil {
		return err
	}
	sc := n.conns[srv.Endpoint()]
	register(sc, "alice", alice)
	register(sc, "bob", bob)
	regs := make([][]byte, 16)
	for i := range regs {
		from := transport.Endpoint{Addr: alice.Addr, Port: transport.Port(6000 + i)}
		regs[i] = proto.Encode(&proto.Message{Type: proto.TypeRegister, From: fmt.Sprintf("peer-%02d", i), Private: from}, 0)
	}
	i := 0
	out["rendezvous.register_ns"] = nsPerOp(20000, func() { sc.feed(alice, regs[i%len(regs)]); i++ })
	connect := proto.Encode(&proto.Message{Type: proto.TypeConnectRequest, From: "alice", Target: "bob", Nonce: 7}, 0)
	out["rendezvous.connect_request_ns"] = nsPerOp(20000, func() { sc.feed(alice, connect) })
	negotiate := proto.Encode(&fx.negotiate, 0)
	out["rendezvous.negotiate_ns"] = nsPerOp(20000, func() { sc.feed(alice, negotiate) })
	st := srv.Stats()
	if want := uint64(microBatches * 20000); st.ConnectRequests != want || st.NegotiateRequests != want || st.Errors != 0 {
		return fmt.Errorf("rendezvous: server brokered %d+%d of %d+%d requests (%d errors)",
			st.ConnectRequests, st.NegotiateRequests, want, want, st.Errors)
	}
	return nil
}

// --- punch --------------------------------------------------------

// simWindow is how much virtual time after the start of Open and of
// Dial the datagram count covers: long enough for every probe and ack
// of a cone-to-cone punch, far shorter than the keep-alive interval
// the driver sets.
const simWindow = 2 * time.Second

func microPunch(rng *rand.Rand, _ fixtures, _ *tracer, out metrics) error {
	const dials = 15
	us, allocs := make([]float64, dials), make([]float64, dials)
	dgrams := -1
	quiet := natpunch.WithKeepAlive(time.Hour, 2*time.Hour)
	seed := rng.Int63()
	for i := 0; i < dials; i++ {
		// The same seed every time: the world, and so the count,
		// repeats; only the wall time varies.
		w := simnet.NewWorld(seed)
		var stamps []time.Duration
		t := newTracer()
		wrap := func(h *simnet.Host) transport.Transport {
			return t.wrap(roleClient, h.Transport(), wrapOpts{
				every:  1 << 30,
				onSend: func(at time.Duration) { stamps = append(stamps, at) },
			})
		}
		core := w.Core()
		// No registration expiry: the hour between keep-alives outlasts
		// any TTL when the driver overruns.
		srv, err := rendezvousapi.Serve(wrap(core.AddHost("S", "18.181.0.31")), 1234, rendezvousapi.WithTTL(-1))
		if err != nil {
			w.Close()
			return err
		}
		hostA := core.AddSite("NAT-A", simnet.Cone(), "155.99.25.11", "10.0.0.0/24").AddHost("A", "10.0.0.1")
		hostB := core.AddSite("NAT-B", simnet.Cone(), "138.76.29.7", "10.1.1.0/24").AddHost("B", "10.1.1.3")
		bob, err := natpunch.Open(wrap(hostB), "bob", srv.Endpoint(), quiet)
		if err != nil {
			w.Close()
			return err
		}
		// Listen without accepting: a blocked Accept would let virtual
		// time run on between alice's calls.
		if _, err := bob.Listen(); err != nil {
			w.Close()
			return err
		}
		trA := wrap(hostA)
		now := func() (at time.Duration) {
			trA.Invoke(func() { at = trA.Now() })
			return at
		}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		openAt := now()
		t0 := time.Now()
		alice, err := natpunch.Open(trA, "alice", srv.Endpoint(), quiet)
		if err != nil {
			w.Close()
			return err
		}
		d0 := time.Since(t0)
		dialAt := now()
		t0 = time.Now()
		conn, err := alice.Dial("bob")
		us[i] = float64(d0+time.Since(t0)) / 1e3
		runtime.ReadMemStats(&m1)
		allocs[i] = float64(m1.Mallocs - m0.Mallocs)
		if err == nil {
			err = checkClass(conn, "direct")
		}
		if err != nil {
			w.Close()
			return fmt.Errorf("punch: cone-to-cone dial over simnet: %w", err)
		}

		// Let the world reach the end of the dial's window, then count
		// the datagrams stamped inside the two windows. The world's
		// driver may run past the moment a call completes — into the
		// next keep-alive, an hour on — but whatever it sends there is
		// stamped outside both windows.
		fired := make(chan struct{})
		trA.Invoke(func() { trA.After(max(dialAt+simWindow-trA.Now(), 0), func() { close(fired) }) })
		trA.(transport.Waiter).AddWaiter()
		<-fired
		trA.(transport.Waiter).RemoveWaiter()
		n := 0
		trA.Invoke(func() { // the world's lock also guards stamps
			for _, at := range stamps {
				if (at >= openAt && at <= openAt+simWindow) || (at >= dialAt && at <= dialAt+simWindow) {
					n++
				}
			}
		})
		alice.Close()
		bob.Close()
		w.Close()
		// A keep-alive can fall inside a window only when the driver
		// overran to just before one; the smallest count is the dial's.
		if dgrams < 0 || n < dgrams {
			dgrams = n
		}
	}
	out["punch.sim_dial_us"] = metric{Value: median(us), Unit: "us", N: dials}
	out["punch.sim_dial_allocs"] = metric{Value: median(allocs), Unit: "count", N: dials}
	out["punch.dial_datagrams"] = metric{Value: float64(dgrams), Unit: "count", N: dials}
	return nil
}

// --- engine -------------------------------------------------------

// muxPair is two stream engines wired to each other over memNet: the
// reliability layer with no sockets, no facade and no goroutines.
type muxPair struct {
	n          *memNet
	trA, trB   *memTransport
	a, b       *istream.Mux
	accepted   []*istream.Stream // streams b has seen a opening
	dgrams     int               // datagrams sent, both ways
	ackDgrams  int               // ... of which carried no payload
	sentTo     map[uint64]uint32 // per stream: highest data offset a has sent
	rtxBytes   int64             // payload bytes a sent below sentTo
	dataBytes  int64             // payload bytes a sent in all
	sniffSends bool
}

func newMuxPair(seed int64, sniff bool) *muxPair {
	p := &muxPair{n: newMemNet(), sentTo: make(map[uint64]uint32), sniffSends: sniff}
	p.trA, p.trB = p.n.host("10.0.0.1", seed), p.n.host("10.0.0.2", seed+1)
	ca, _ := p.trA.BindUDP(1)
	cb, _ := p.trB.BindUDP(1)
	var parser istream.Parser
	p.a = istream.NewMux(p.trA, func(d []byte) error {
		if p.sniffSends {
			p.dgrams++
			parser.Parse(d, func(f istream.Frame) error {
				if f.Type == proto.TypeStream && len(f.Data) > 0 {
					end := f.Off + uint32(len(f.Data))
					old := istream.SeqDiff(p.sentTo[f.Stream], f.Off)
					p.rtxBytes += int64(max(min(old, int32(len(f.Data))), 0))
					p.dataBytes += int64(len(f.Data))
					if istream.SeqGT(end, p.sentTo[f.Stream]) {
						p.sentTo[f.Stream] = end
					}
				}
				return nil
			})
		}
		return ca.SendTo(cb.Local(), d)
	}, true, istream.Config{}, istream.Callbacks{})
	p.b = istream.NewMux(p.trB, func(d []byte) error {
		if p.sniffSends {
			p.dgrams++
			p.ackDgrams++
		}
		return cb.SendTo(ca.Local(), d)
	}, false, istream.Config{}, istream.Callbacks{
		Accept: func(s *istream.Stream) { p.accepted = append(p.accepted, s) },
	})
	ca.OnRecv(func(_ transport.Endpoint, d []byte) { p.a.HandleDatagram(d) })
	cb.OnRecv(func(_ transport.Endpoint, d []byte) { p.b.HandleDatagram(d) })
	return p
}

// transfer pushes total pattern bytes from a to b on one stream,
// reading and checking them at b, and stepping the virtual clock only
// when neither side can move (a window probe or a retransmission
// timeout is all that is left).
func (p *muxPair) transfer(pat *pattern, total int64) error {
	var ws *istream.Stream
	var err error
	p.trA.Invoke(func() { ws, err = p.a.Open() })
	if err != nil {
		return err
	}
	buf := make([]byte, bulkChunk)
	var wrote, read int64
	for read < total {
		moved := false
		if wrote < total {
			p.trA.Invoke(func() {
				n := ws.Write(pat.at(wrote, int(min(bulkChunk, total-wrote))))
				wrote += int64(n)
				moved = n > 0
			})
		}
		if len(p.accepted) > 0 {
			rs := p.accepted[0]
			var bad bool
			p.trB.Invoke(func() {
				for {
					n, _ := rs.Read(buf)
					if n == 0 {
						return
					}
					if !bytes.Equal(buf[:n], pat.at(read, n)) {
						bad = true
						return
					}
					read += int64(n)
					moved = true
				}
			})
			if bad {
				return fmt.Errorf("engine: bytes after offset %d differ from the pattern", read)
			}
		}
		if !moved && !p.n.step() {
			return fmt.Errorf("engine: transfer wedged at %d of %d bytes with no timer pending", read, total)
		}
	}
	return nil
}

func microEngine(rng *rand.Rand, _ fixtures, _ *tracer, out metrics) error {
	pat := newPattern(rng)
	const mb = 1 << 20

	// Bulk, timed and unobserved.
	const timed = 32 * mb
	p := newMuxPair(rng.Int63(), false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := p.transfer(pat, timed); err != nil {
		return err
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	out["engine.bulk_MBps"] = metric{Value: timed / 1e6 / el.Seconds(), Unit: "MB/s", N: timed / bulkChunk}
	out["engine.bulk_allocs_per_MB"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / (timed / 1e6), Unit: "count", N: timed / bulkChunk}

	// Bulk again, counting what goes on the wire.
	const counted = 8 * mb
	p = newMuxPair(rng.Int63(), true)
	if err := p.transfer(pat, counted); err != nil {
		return err
	}
	out["engine.dgrams_per_MB"] = metric{Value: float64(p.dgrams) / (counted / 1e6), Unit: "count", N: p.dgrams}
	out["engine.acks_per_MB"] = metric{Value: float64(p.ackDgrams) / (counted / 1e6), Unit: "count", N: p.ackDgrams}
	if p.rtxBytes != 0 {
		return fmt.Errorf("engine: %d bytes retransmitted on a lossless in-memory path", p.rtxBytes)
	}

	// Bulk under seeded 1% loss toward the receiver; time is virtual,
	// so the ratio is exact for a seed.
	p = newMuxPair(rng.Int63(), true)
	lose := onePercent(rand.New(rand.NewSource(rng.Int63())))
	toB := transport.Endpoint{Addr: p.trB.addr, Port: 1}
	p.n.drop = func(to transport.Endpoint) bool { return to == toB && lose() }
	if err := p.transfer(pat, counted); err != nil {
		return err
	}
	out["engine.loss1_rtx_ratio"] = metric{Value: float64(p.rtxBytes) / counted, Unit: "ratio", N: int(p.n.dropped)}

	// Ping-pong: a 256-byte request and response on one stream.
	p = newMuxPair(rng.Int63(), false)
	var cs, ss *istream.Stream
	var err error
	p.trA.Invoke(func() { cs, err = p.a.Open() })
	if err != nil {
		return err
	}
	req, resp := make([]byte, rpcSize), make([]byte, rpcSize)
	rng.Read(req)
	var bad error
	round := func() {
		p.trA.Invoke(func() { cs.Write(req) })
		if ss == nil {
			if len(p.accepted) == 0 {
				bad = errors.New("engine: request never opened the stream at the peer")
				return
			}
			ss = p.accepted[0]
		}
		p.trB.Invoke(func() {
			if n, _ := ss.Read(resp); n != rpcSize || !bytes.Equal(resp, req) {
				bad = fmt.Errorf("engine: peer read %d request bytes, want %d intact", n, rpcSize)
			}
			ss.Write(resp)
		})
		p.trA.Invoke(func() {
			if n, _ := cs.Read(resp); n != rpcSize || !bytes.Equal(resp, req) {
				bad = fmt.Errorf("engine: read %d response bytes, want %d intact", n, rpcSize)
			}
		})
	}
	out["engine.rpc_ns"] = nsPerOp(5000, round)
	return bad
}

// --- facade -------------------------------------------------------

func microFacade(rng *rand.Rand, _ fixtures, tr *tracer, out metrics) error {
	c := &runCtx{rng: rng, tr: tr}
	w, err := newLoopWorld(c)
	if err != nil {
		return err
	}
	defer w.close()
	o := wrapOpts{every: 64}
	opts := []natpunch.Option{natpunch.WithICE(), natpunch.WithRelayFallback(), natpunch.WithPunchTimeout(punchTimeout("direct"))}
	bob, err := w.open("bob", o, opts...)
	if err != nil {
		return err
	}
	ln, err := bob.d.Listen()
	if err != nil {
		return err
	}
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
		buf := make([]byte, 2048)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return // closed with the world
			}
			conn.Write(buf[:n])
		}
	}()
	t0 := time.Now()
	alice, err := w.open("alice", o, opts...)
	if err != nil {
		return err
	}
	payload, buf := make([]byte, 64), make([]byte, 2048)
	rng.Read(payload)
	conn, err := dialEcho(c, alice.d, "bob", "direct", payload, buf)
	if err != nil {
		return err
	}
	tr.stage("connect", time.Since(t0))
	const rounds = 3000
	rtt := make([]float64, rounds)
	for i := range rtt {
		t0 := time.Now()
		if _, err := conn.Write(payload); err != nil {
			return err
		}
		conn.SetReadDeadline(t0.Add(ioTimeout))
		n, err := conn.Read(buf)
		if err != nil {
			return err
		}
		rtt[i] = float64(time.Since(t0)) / 1e3
		if !bytes.Equal(buf[:n], payload) {
			return errors.New("facade: echoed datagram differs from the one sent")
		}
	}
	sort.Float64s(rtt)
	out["facade.dgram_rtt_us"] = metric{Value: quantile(rtt, 50), Unit: "us", N: rounds}
	return nil
}
