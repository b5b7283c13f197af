package natpunch

// The throughput benchmark suite: the data-plane counterpart of the
// connect-latency trajectory in bench_test.go. Where BenchmarkConnect
// measures how fast sessions come up, these benchmarks measure how
// much traffic the infrastructure moves once they are up:
//
//   - BenchmarkThroughput/registry — registration store ops/sec, the
//     brokering tier's bookkeeping ceiling;
//   - BenchmarkThroughput/forwarder — §3.2 introductions/sec over
//     real loopback sockets;
//   - BenchmarkRelayGoodput — §2.2 relayed datagrams/sec over
//     loopback, batched (sendmmsg/recvmmsg) vs the portable
//     per-datagram fallback. The batched path is the PR's tentpole;
//     its speedup over portable is reported as a metric.
//
// Run with:
//
//	go test -run=NONE -bench 'RelayGoodput|Throughput' .
//
// The goodput comparison is build flavor against build flavor: the
// batched subtest runs the Linux fast path end to end (GSO-segmented
// sends, sendmmsg/recvmmsg, server and load generators alike), while
// the portable subtest reproduces the !linux fallback's data plane —
// one syscall per datagram everywhere — on the same hardware.

import (
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/rendezvous"
	"natpunch/realudp"
	"natpunch/relayapi"
	"natpunch/rendezvousapi"
)

// loadConn is one benchmark load-generator endpoint: a raw loopback
// UDP socket wrapped in the batched I/O helper, so on Linux the
// generator itself batches its syscalls and cannot be the bottleneck
// the benchmark accidentally measures.
type loadConn struct {
	uc       *net.UDPConn
	bc       *realudp.BatchConn
	portable bool // per-datagram syscalls, like the !linux fallback
	count    atomic.Int64
}

func newLoadConn(tb testing.TB, portable bool) *loadConn {
	tb.Helper()
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { uc.Close() })
	uc.SetReadBuffer(4 << 20)
	uc.SetWriteBuffer(4 << 20)
	bc, err := realudp.NewBatchConn(uc)
	if err != nil {
		tb.Fatal(err)
	}
	return &loadConn{uc: uc, bc: bc, portable: portable}
}

// sendBurst transmits one burst, batched or one datagram at a time.
func (lc *loadConn) sendBurst(ms []realudp.Datagram) error {
	if lc.portable {
		for i := range ms {
			if _, err := lc.uc.WriteToUDPAddrPort(ms[i].Payload, ms[i].Addr); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := lc.bc.WriteBatch(ms)
	return err
}

// register performs the §3.1 registration handshake against the
// server and waits for the RegisterOK echo, retrying on loss.
func (lc *loadConn) register(tb testing.TB, name string, srv netip.AddrPort) {
	tb.Helper()
	wire := proto.Encode(&proto.Message{Type: proto.TypeRegister, From: name}, 0)
	buf := make([]byte, 2048)
	for attempt := 0; attempt < 10; attempt++ {
		if _, err := lc.uc.WriteToUDPAddrPort(wire, srv); err != nil {
			tb.Fatal(err)
		}
		lc.uc.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, _, err := lc.uc.ReadFromUDPAddrPort(buf)
		if err != nil {
			continue
		}
		if m, derr := proto.Decode(buf[:n]); derr == nil && m.Type == proto.TypeRegisterOK {
			lc.uc.SetReadDeadline(time.Time{})
			return
		}
	}
	tb.Fatalf("%s: registration handshake got no RegisterOK", name)
}

// countLoop drains the socket in batches and counts messages of the
// wanted type until the socket closes. It sniffs the magic and type
// bytes instead of decoding, so on a single shared CPU the sink
// steals as little time as possible from the server under test.
func (lc *loadConn) countLoop(want proto.Type) {
	if lc.portable {
		buf := make([]byte, 2048)
		for {
			n, _, err := lc.uc.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n >= 2 && buf[0] == 0xF0 && proto.Type(buf[1]) == want {
				lc.count.Add(1)
			}
		}
	}
	bufs := make([][]byte, 32)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	ms := make([]realudp.Datagram, len(bufs))
	for {
		for i := range ms {
			ms[i] = realudp.Datagram{Payload: bufs[i]}
		}
		n, err := lc.bc.ReadBatch(ms)
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			if p := ms[i].Payload; len(p) >= 2 && p[0] == 0xF0 && proto.Type(p[1]) == want {
				lc.count.Add(1)
			}
		}
	}
}

// srvAddrPort converts a server's advertised endpoint to the
// unmapped AddrPort form the udp4 generator sockets require.
func srvAddrPort(ep inet.Endpoint) netip.AddrPort {
	ap := realudp.ToUDPAddr(ep).AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// waitCount blocks until the sink has counted target datagrams,
// tolerating loss: 200ms with no progress gives up, because UDP is
// lossy by contract and the benchmark measures goodput, not delivery
// guarantees. The brief sleep parks the sender so the single-CPU
// scheduler hands the core to the server and sink goroutines.
func waitCount(lc *loadConn, target int64) {
	last := lc.count.Load()
	stall := time.Now()
	for lc.count.Load() < target {
		time.Sleep(20 * time.Microsecond)
		if cur := lc.count.Load(); cur != last {
			last, stall = cur, time.Now()
		} else if time.Since(stall) > 200*time.Millisecond {
			return
		}
	}
}

// benchServerLoad drives bursts of wire against a loopback server and
// measures how many want-typed replies the sink sees per second. The
// send window stays at most maxAhead datagrams ahead of the sink so
// kernel socket buffers, not the server, bound the loss.
func benchServerLoad(b *testing.B, srv netip.AddrPort, sender, sink *loadConn, wire []byte, want proto.Type) float64 {
	go sink.countLoop(want)
	const burst = 64
	const maxAhead = 1024
	msgs := make([]realudp.Datagram, burst)
	for i := range msgs {
		msgs[i] = realudp.Datagram{Addr: srv, Payload: wire}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := sink.count.Load()
	sent := int64(0)
	for i := 0; i < b.N; i++ {
		if err := sender.sendBurst(msgs); err != nil {
			b.Fatal(err)
		}
		sent += burst
		waitCount(sink, start+sent-maxAhead)
	}
	waitCount(sink, start+sent)
	got := sink.count.Load() - start
	if got == 0 {
		b.Fatal("server forwarded nothing")
	}
	pps := float64(got) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pps")
	b.ReportMetric(100*float64(sent-got)/float64(sent), "loss%")
	return pps
}

// benchRelayGoodput measures §2.2 relay goodput over loopback with
// the server's batched data plane on or off.
func benchRelayGoodput(b *testing.B, batching bool) float64 {
	requireLoopbackUDP(b)
	tr, err := realudp.New("127.0.0.1:0", realudp.WithBatching(batching))
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	srv, err := relayapi.Serve(tr, 0, relayapi.WithTTL(-1))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	addr := srvAddrPort(srv.Endpoint())

	sender := newLoadConn(b, !batching)
	sink := newLoadConn(b, !batching)
	sender.register(b, "alice", addr)
	sink.register(b, "bob", addr)

	wire := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "bob",
		Seq: 1, Data: make([]byte, 64),
	}, 0)
	return benchServerLoad(b, addr, sender, sink, wire, proto.TypeRelayed)
}

// BenchmarkRelayGoodput is the standing data-plane regression
// workload: relayed datagrams per second over loopback, batched
// (sendmmsg/recvmmsg) against the portable per-datagram fallback. On
// Linux the batched path must hold a clear multiple of the portable
// one — the speedup is logged after both subtests.
func BenchmarkRelayGoodput(b *testing.B) {
	var batched, portable float64
	b.Run("batched", func(b *testing.B) { batched = benchRelayGoodput(b, true) })
	b.Run("portable", func(b *testing.B) { portable = benchRelayGoodput(b, false) })
	if batched > 0 && portable > 0 {
		b.Logf("batched/portable relay goodput: %.0f / %.0f pps (%.2fx)", batched, portable, batched/portable)
	}
}

// BenchmarkThroughput covers the remaining infrastructure hot paths:
// registration store ops/sec, forwarder introductions/sec, and the
// batched relay goodput once more under its deployment-shaped name.
func BenchmarkThroughput(b *testing.B) {
	b.Run("registry", func(b *testing.B) {
		reg := rendezvous.NewShardedRegistry(16)
		names := make([]string, 1024)
		eps := make([]inet.Endpoint, len(names))
		for i := range names {
			names[i] = fmt.Sprintf("peer-%04d", i)
			eps[i] = inet.MustParseEndpoint(fmt.Sprintf("10.0.%d.%d:4000", i/256, i%256))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := names[i%len(names)]
			reg.Put(rendezvous.Record{Name: n, Public: eps[i%len(eps)]})
			if _, ok := reg.Get(n, time.Second); !ok {
				b.Fatal("registry lost a live record")
			}
		}
		b.ReportMetric(2*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
	b.Run("forwarder", func(b *testing.B) {
		requireLoopbackUDP(b)
		tr, err := realudp.New("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		srv, err := rendezvousapi.Serve(tr, 0, rendezvousapi.WithTTL(-1))
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addr := srvAddrPort(srv.Endpoint())

		requester := newLoadConn(b, false)
		target := newLoadConn(b, false)
		requester.register(b, "alice", addr)
		target.register(b, "bob", addr)
		// The requester's half of each introduction also lands on its
		// socket; drain it so its receive buffer never fills.
		go requester.countLoop(proto.TypeConnectDetails)

		wire := proto.Encode(&proto.Message{
			Type: proto.TypeConnectRequest, From: "alice", Target: "bob", Nonce: 7,
		}, 0)
		benchServerLoad(b, addr, requester, target, wire, proto.TypeConnectDetails)
	})
	b.Run("relay", func(b *testing.B) { benchRelayGoodput(b, true) })
}
