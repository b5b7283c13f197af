package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"

	"natpunch"
	"natpunch/internal/proto"
	"natpunch/realudp"
	"natpunch/relayapi"
	"natpunch/stream"
	"natpunch/transport"
)

// workloads is the ledger, in the order it is run and printed. All of
// them run closed-loop in one process with at most two load goroutines
// (this box has two cores, shared with the program under test), over
// real UDP sockets on loopback. The ones marked extra are measured and
// reported like the rest but are not in BENCHMARK.json, so nothing is
// bounded on them.
var workloads = []*workload{
	{
		name:   "relay_small",
		why:    "smallest packet through the relay over loopback UDP, so per-packet cost in realudp+proto+rendezvous is everything and punch/engine/facade do nothing",
		opUnit: "datagram delivered",
		run:    runRelaySmall,
	},
	{
		name:   "stream_bulk_direct",
		why:    "one stream of 64 KiB writes on a punched loopback path: engine+facade+stream+realudp at 1152-byte datagrams with the server idle, the bypass workload for any server change",
		opUnit: "64 KiB chunk delivered",
		run:    func(c *runCtx) error { return runBulk(c, "direct", nil, 128) },
	},
	{
		name:   "stream_bulk_relay",
		why:    "the same transfer with the direct path severed: large datagrams plus reverse acks through the relay, which holds the relay-vs-direct goodput anomaly",
		opUnit: "64 KiB chunk delivered",
		run:    func(c *runCtx) error { return runBulk(c, "relay", sever, 128) },
	},
	{
		name:   "stream_bulk_lossy",
		why:    "the direct transfer with seeded 1% inbound loss at the receiver: the only workload where loss recovery does work",
		opUnit: "64 KiB chunk delivered",
		run:    func(c *runCtx) error { return runBulk(c, "direct", lossyReceiver, 16) },
	},
	{
		name:   "stream_rpc",
		why:    "256-byte request/response ping-pong on 4 streams: latency-bound, one small frame per datagram, so a batching gain for bulk that costs small messages shows here",
		opUnit: "round trip",
		run:    runRPC,
	},
	{
		name:   "connect_churn",
		why:    "fresh socket, register, dial, one echoed datagram, close, against 16 listeners: control plane only (punch+rendezvous introductions+facade), data plane near zero",
		opUnit: "connect",
		run:    func(c *runCtx) error { return runChurn(c, false) },
	},
	{
		name:   "connect_churn_ice",
		why:    "connect_churn dialing through candidate negotiation: about one dial in a hundred loses its first check to a race and waits out the 100 ms retry, which makes throughput too unsteady to bound",
		opUnit: "connect",
		run:    func(c *runCtx) error { return runChurn(c, true) },
		extra:  true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pattern is a seeded byte table of prime length: the byte at stream
// offset o is tab[o mod len], so every byte identifies its offset (up
// to the period) and a lost, repeated or reordered segment shows as a
// mismatch. The table is stored twice over so any run shorter than
// the period is one contiguous slice.
type pattern struct{ tab []byte }

const patternPeriod = 131071

func newPattern(rng *rand.Rand) *pattern {
	tab := make([]byte, 2*patternPeriod)
	rng.Read(tab[:patternPeriod])
	copy(tab[patternPeriod:], tab[:patternPeriod])
	return &pattern{tab: tab}
}

// at returns the n pattern bytes starting at stream offset off
// (n <= patternPeriod). The slice aliases the table.
func (p *pattern) at(off int64, n int) []byte {
	o := int(off % patternPeriod)
	return p.tab[o : o+n]
}

// --- relay_small --------------------------------------------------

const (
	relayPayload = 64   // application bytes per relayed datagram
	relayBurst   = 64   // datagrams per sendmmsg burst
	relayAhead   = 1024 // most the sender runs ahead of the sink
	relayStall   = 200 * time.Millisecond
)

// rawPeer is a load-generator endpoint: a plain loopback socket
// driven through realudp's batched I/O helper, so the generator
// batches its own syscalls and is not what the workload measures.
type rawPeer struct {
	uc *net.UDPConn
	bc *realudp.BatchConn
}

func newRawPeer() (*rawPeer, error) {
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	uc.SetReadBuffer(4 << 20)
	uc.SetWriteBuffer(4 << 20)
	bc, err := realudp.NewBatchConn(uc)
	if err != nil {
		uc.Close()
		return nil, err
	}
	return &rawPeer{uc: uc, bc: bc}, nil
}

// register performs the §3.1 handshake, retrying on loss.
func (p *rawPeer) register(name string, srv netip.AddrPort) error {
	wire := proto.Encode(&proto.Message{Type: proto.TypeRegister, From: name}, 0)
	buf := make([]byte, 2048)
	defer p.uc.SetReadDeadline(time.Time{})
	for try := 0; try < 10; try++ {
		if _, err := p.uc.WriteToUDPAddrPort(wire, srv); err != nil {
			return err
		}
		p.uc.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, _, err := p.uc.ReadFromUDPAddrPort(buf)
		if err != nil {
			continue
		}
		if m, err := proto.Decode(buf[:n]); err == nil && m.Type == proto.TypeRegisterOK {
			return nil
		}
	}
	return fmt.Errorf("%s: no RegisterOK from %v", name, srv)
}

func addrPortOf(ep transport.Endpoint) netip.AddrPort {
	ap := realudp.ToUDPAddr(ep).AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// relayWire builds the datagram template and finds where its payload
// sits: the payload's first 8 bytes carry the sequence number, the
// next 8 the send time, the rest a seeded pad the sink compares.
func relayWire(rng *rand.Rand) (wire []byte, off int) {
	data := make([]byte, relayPayload)
	rng.Read(data)
	wire = proto.Encode(&proto.Message{Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: 1, Data: data}, 0)
	return wire, bytes.Index(wire, data)
}

func runRelaySmall(c *runCtx) error {
	tr, err := realudp.New(loopback)
	if err != nil {
		return err
	}
	defer tr.Close()
	in, inOff := relayWire(c.rng)
	seam := c.wrap(roleServer, tr, wrapOpts{
		every: 1024,
		opOf: func(p []byte) uint64 {
			if len(p) != len(in) {
				return 0
			}
			return binary.LittleEndian.Uint64(p[inOff:])
		},
	})
	srv, err := relayapi.Serve(seam, 0, relayapi.WithTTL(-1))
	if err != nil {
		return err
	}
	defer srv.Close()
	addr := addrPortOf(srv.Endpoint())

	sender, err := newRawPeer()
	if err != nil {
		return err
	}
	defer sender.uc.Close()
	sink, err := newRawPeer()
	if err != nil {
		return err
	}
	if err := sender.register("alice", addr); err != nil {
		sink.uc.Close()
		return err
	}
	if err := sink.register("bob", addr); err != nil {
		sink.uc.Close()
		return err
	}

	// What the sink must see: the server's re-encoding of the same
	// message, byte for byte outside the sequence number and stamp.
	out := append([]byte(nil), in...)
	out[1] = byte(proto.TypeRelayed)
	pad := in[inOff+16 : inOff+relayPayload]

	l := load{drivers: 1}
	var lat latLog
	senderDone, sinkDone := make(chan struct{}), make(chan struct{})

	// Sink: count in-order arrivals, treat gaps as loss, check every
	// datagram's envelope and pad.
	go func() {
		defer close(sinkDone)
		bufs := make([][]byte, 32)
		for i := range bufs {
			bufs[i] = make([]byte, 2048)
		}
		ms := make([]realudp.Datagram, len(bufs))
		next := uint64(1)
		for {
			for i := range ms {
				ms[i] = realudp.Datagram{Payload: bufs[i]}
			}
			n, err := sink.bc.ReadBatch(ms)
			if err != nil {
				return // socket closed: the run is over
			}
			now := time.Since(processStart)
			for _, m := range ms[:n] {
				p := m.Payload
				if len(p) != len(out) || p[0] != out[0] || p[1] != out[1] ||
					!bytes.Equal(p[inOff+16:inOff+relayPayload], pad) {
					l.fail(incorrect{fmt.Errorf("sink got a %d-byte datagram that is not the relayed message", len(p))})
					return
				}
				seq := binary.LittleEndian.Uint64(p[inOff:])
				if seq < next {
					l.fail(incorrect{fmt.Errorf("sink got datagram %d after %d", seq, next-1)})
					return
				}
				next = seq + 1
				if seq%relayBurst == 0 && l.rec.Load() {
					sent := time.Duration(binary.LittleEndian.Uint64(p[inOff+8:]))
					lat.at = append(lat.at, now)
					lat.us = append(lat.us, float64(now-sent)/1e3)
				}
			}
			l.bytes.Add(int64(n) * relayPayload)
			l.ops.Add(int64(n))
		}
	}()

	// Sender: bursts of 64, never more than relayAhead beyond the
	// sink, so that kernel socket buffers never overflow and every
	// loss is the server's.
	go func() {
		defer close(senderDone)
		wires := make([][]byte, relayBurst)
		msgs := make([]realudp.Datagram, relayBurst)
		for i := range msgs {
			wires[i] = append([]byte(nil), in...)
			msgs[i] = realudp.Datagram{Addr: addr, Payload: wires[i]}
		}
		var sent, written int64 // written: given up on after a stall
		// waitFor parks the sender until the sink is within ahead of
		// it; after relayStall without progress the missing datagrams
		// are written off as lost. The stall is summed over the polls,
		// a millisecond at most from each, so that a host that stops
		// the whole process for a while does not read as one.
		waitFor := func(ahead int64) {
			last, polled, idle := l.ops.Load(), time.Now(), time.Duration(0)
			for sent-written-l.ops.Load() > ahead && l.failure() == nil {
				time.Sleep(20 * time.Microsecond)
				now := time.Now()
				if cur := l.ops.Load(); cur != last {
					last, idle = cur, 0
				} else if idle += min(now.Sub(polled), time.Millisecond); idle > relayStall {
					written = sent - cur
					return
				}
				polled = now
			}
		}
		for l.next() {
			now := uint64(time.Since(processStart))
			for i := range wires {
				sent++
				binary.LittleEndian.PutUint64(wires[i][inOff:], uint64(sent))
				binary.LittleEndian.PutUint64(wires[i][inOff+8:], now)
			}
			if _, err := sender.bc.WriteBatch(msgs); err != nil {
				l.fail(err)
				return
			}
			waitFor(relayAhead)
		}
		waitFor(0)
		l.attempted.Store(sent)
		l.failed.Store(sent - l.ops.Load())
	}()

	err = c.measure(&l, 50_000)
	l.stop.Store(true)
	<-senderDone // it drains first: nothing is in flight any more
	sink.uc.Close()
	<-sinkDone
	if err != nil {
		return err
	}
	st := srv.Stats()
	c.res.Relayed, c.res.SrvErrors = st.RelayedMessages, st.Errors
	if int64(st.RelayedMessages) < l.ops.Load() {
		return incorrect{fmt.Errorf("server counted %d relayed messages, sink received %d", st.RelayedMessages, l.ops.Load())}
	}
	c.fold(seam)
	return c.finish(&l, &lat)
}

// --- stream_bulk_* ------------------------------------------------

const bulkChunk = 64 << 10

// onePercent returns a loss process that loses exactly one datagram in
// every hundred, at a seeded position within each hundred: every run
// loses the same share, and only the spacing is left to the seed.
func onePercent(rng *rand.Rand) (lose func() bool) {
	i, victim := 0, rng.Intn(100)
	return func() bool {
		lost := i == victim
		if i++; i == 100 {
			i, victim = 0, rng.Intn(100)
		}
		return lost
	}
}

// lossyReceiver drops 1% of the datagrams bob receives from anyone but
// the server. The filter runs in bob's serialized receive context, so
// the loss process needs no lock.
func lossyReceiver(c *runCtx, alice, bob *peer) {
	lose := onePercent(rand.New(rand.NewSource(c.rng.Int63())))
	server := bob.d.ServerEndpoint()
	bob.tr.SetPacketFilter(func(src transport.Endpoint) bool { return src == server || !lose() })
}

// runBulk warms up with warmChunks chunks: enough to open the windows
// and settle the RTT estimate, sized to each path's speed.
func runBulk(c *runCtx, class string, prepare func(c *runCtx, alice, bob *peer), warmChunks int64) error {
	pat := newPattern(c.rng)
	sp, err := newStreamPair(c, class, prepare)
	if err != nil {
		return err
	}
	defer sp.close()
	ws, err := sp.sessA.OpenStream()
	if err != nil {
		return err
	}

	l := load{opBytes: bulkChunk, drivers: 1}
	var lat latLog
	var wrote int64
	readDone := make(chan int64, 1)
	// starts carries each chunk's write-start time to the reader, which
	// stops the clock when the chunk's last byte is delivered. It holds
	// more chunks than the session window can have in flight.
	starts := make(chan time.Time, 64)

	// Reader: every byte is compared with the pattern at its offset.
	go func() {
		var off int64
		defer func() { readDone <- off }()
		rs, err := sp.sessB.AcceptStream()
		if err != nil {
			l.fail(err)
			return
		}
		buf := make([]byte, bulkChunk)
		for {
			rs.SetReadDeadline(time.Now().Add(ioTimeout))
			n, err := rs.Read(buf)
			if n > 0 {
				if !bytes.Equal(buf[:n], pat.at(off, n)) {
					l.fail(incorrect{fmt.Errorf("stream bytes [%d,%d) differ from the pattern", off, off+int64(n))})
					return
				}
				for next := (off/bulkChunk + 1) * bulkChunk; off+int64(n) >= next; next += bulkChunk {
					if start, now := <-starts, time.Now(); l.rec.Load() {
						lat.add(now, now.Sub(start))
					}
				}
				off += int64(n)
				l.bytes.Store(off)
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				l.fail(err)
				return
			}
		}
	}()

	// Writer: 64 KiB writes, back to back.
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		for op := uint64(1); l.next(); op++ {
			end := sp.alice.traceOp(op, 64)
			t0 := time.Now()
			starts <- t0
			ws.SetWriteDeadline(t0.Add(ioTimeout))
			n, err := ws.Write(pat.at(wrote, bulkChunk))
			wrote += int64(n)
			end()
			if err != nil {
				l.fail(err)
				return
			}
		}
	}()

	err = c.measure(&l, warmChunks)
	l.stop.Store(true)
	<-writeDone
	ws.CloseWrite()
	read := <-readDone
	if err != nil {
		return err
	}
	if ferr := l.failure(); ferr != nil {
		return ferr
	}
	if read != wrote {
		return incorrect{fmt.Errorf("reader saw %d bytes before EOF, writer wrote %d", read, wrote)}
	}
	l.attempted.Store(wrote / bulkChunk)
	return c.finish(&l, &lat)
}

// --- stream_rpc ---------------------------------------------------

const (
	rpcStreams = 4
	rpcSize    = 256
)

func runRPC(c *runCtx) error {
	pad := make([]byte, rpcSize)
	c.rng.Read(pad)
	sp, err := newStreamPair(c, "direct", nil)
	if err != nil {
		return err
	}
	defer sp.close()

	l := load{drivers: 2}
	// Bob: one echo goroutine per stream. A request is the seeded pad
	// with the stream and round numbers in front; the response is its
	// complement, so a response can never be mistaken for an echo of
	// stale request bytes.
	go func() {
		for i := 0; i < rpcStreams; i++ {
			rs, err := sp.sessB.AcceptStream()
			if err != nil {
				if !l.stop.Load() {
					l.fail(err)
				}
				return
			}
			go func() {
				req, resp := make([]byte, rpcSize), make([]byte, rpcSize)
				for {
					if _, err := io.ReadFull(rs, req); err != nil {
						if !l.stop.Load() {
							l.fail(err)
						}
						return
					}
					if !bytes.Equal(req[16:], pad[16:]) {
						l.fail(incorrect{errors.New("request bytes differ from the pattern")})
						return
					}
					for i, b := range req {
						resp[i] = ^b
					}
					if _, err := rs.Write(resp); err != nil {
						if !l.stop.Load() {
							l.fail(err)
						}
						return
					}
				}
			}()
		}
	}()

	// Alice: two load goroutines, two streams each, one request in
	// flight per goroutine.
	var streams [rpcStreams]*stream.Stream
	for i := range streams {
		if streams[i], err = sp.sessA.OpenStream(); err != nil {
			return err
		}
	}
	lats := make([]latLog, 2)
	var wg sync.WaitGroup
	for g := range lats {
		sts := streams[g*rpcStreams/2 : (g+1)*rpcStreams/2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, resp := append([]byte(nil), pad...), make([]byte, rpcSize)
			for round := uint64(1); l.next(); round++ {
				st := sts[round%uint64(len(sts))]
				binary.LittleEndian.PutUint64(req, st.ID())
				binary.LittleEndian.PutUint64(req[8:], round)
				l.attempted.Add(1)
				t0 := time.Now()
				st.SetDeadline(t0.Add(ioTimeout))
				if _, err := st.Write(req); err != nil {
					l.fail(err)
					return
				}
				if _, err := io.ReadFull(st, resp); err != nil {
					l.fail(err)
					return
				}
				t1 := time.Now()
				for i, b := range resp {
					if b != ^req[i] {
						l.fail(incorrect{fmt.Errorf("response byte %d of round %d on stream %d is wrong", i, round, st.ID())})
						return
					}
				}
				l.bytes.Add(2 * rpcSize)
				l.ops.Add(1)
				if l.rec.Load() {
					lats[g].add(t1, t1.Sub(t0))
				}
			}
		}()
	}

	err = c.measure(&l, 2000)
	l.stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	return c.finish(&l, &lats[0], &lats[1])
}

// --- connect_churn ------------------------------------------------

const churnListeners = 16

// runChurn dials with plain §3.2 hole punching, or with candidate
// negotiation when ice is set.
func runChurn(c *runCtx, ice bool) error {
	opts := []natpunch.Option{natpunch.WithRelayFallback(), natpunch.WithPunchTimeout(punchTimeout("direct"))}
	if ice {
		opts = append(opts, natpunch.WithICE())
	}
	w, err := newLoopWorld(c)
	if err != nil {
		return err
	}
	defer w.close()

	l := load{drivers: 2}
	names := make([]string, churnListeners)
	for i := range names {
		names[i] = fmt.Sprintf("listener-%02d", i)
		p, err := w.open(names[i], wrapOpts{every: 16}, opts...)
		if err != nil {
			return err
		}
		ln, err := p.d.Listen()
		if err != nil {
			return err
		}
		go func() {
			for {
				conn, err := ln.AcceptConn()
				if err != nil {
					return // listener closed with its world
				}
				// One goroutine a session: a dial that is waiting out a
				// punch retry must not hold up the next client's echo.
				go echoOnce(conn)
			}
		}()
	}

	lats := make([]latLog, 2)
	var wg sync.WaitGroup
	for g := range lats {
		rng := rand.New(rand.NewSource(c.rng.Int63()))
		name := fmt.Sprintf("client-%d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, buf := make([]byte, 64), make([]byte, 2048)
			for l.next() {
				rng.Read(payload)
				l.attempted.Add(1)
				t0 := time.Now()
				err := func() error {
					p, err := openPeer(c, name, w.server, wrapOpts{every: 16}, opts...)
					if err != nil {
						return err
					}
					defer p.close(c)
					conn, err := dialEcho(c, p.d, names[rng.Intn(len(names))], "direct", payload, buf)
					if err != nil {
						return err
					}
					t1 := time.Now()
					c.tr.stage("connect", t1.Sub(t0))
					if l.rec.Load() {
						lats[g].add(t1, t1.Sub(t0))
					}
					return conn.Close()
				}()
				switch {
				case err == nil:
					l.bytes.Add(int64(len(payload)))
					l.ops.Add(1)
				case isIncorrect(err):
					l.fail(err)
					return
				default:
					if l.failed.Add(1) <= 3 {
						fmt.Fprintf(os.Stderr, "%s: connect failed: %v\n", name, err)
					}
				}
			}
		}()
	}

	err = c.measure(&l, 200)
	l.stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	return c.finish(&l, &lats[0], &lats[1])
}
