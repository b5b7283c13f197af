package sim

import (
	"testing"
	"time"

	"natpunch/internal/inet"
)

// echoDev records received packets and can auto-reply.
type echoDev struct {
	name string
	got  []*inet.Packet
	ifc  *Iface
	// reply, if set, is sent in response to every received packet.
	reply func(pkt *inet.Packet) *inet.Packet
}

func (d *echoDev) Name() string { return d.name }
func (d *echoDev) Receive(ifc *Iface, pkt *inet.Packet) {
	d.got = append(d.got, pkt)
	if d.reply != nil {
		if r := d.reply(pkt); r != nil {
			ifc.Send(r)
		}
	}
}

func udpPkt(src, dst inet.Endpoint, payload string) *inet.Packet {
	return &inet.Packet{Proto: inet.UDP, Src: src, Dst: dst, TTL: inet.DefaultTTL, Payload: []byte(payload)}
}

func TestSegmentDelivery(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("lan", "10.0.0.0/24", 5*time.Millisecond)
	a := &echoDev{name: "a"}
	b := &echoDev{name: "b"}
	a.ifc = seg.Attach(a, inet.MustParseAddr("10.0.0.1"))
	b.ifc = seg.Attach(b, inet.MustParseAddr("10.0.0.2"))

	a.ifc.Send(udpPkt(inet.EP("10.0.0.1", 100), inet.EP("10.0.0.2", 200), "hi"))
	n.Sched.Run()

	if len(b.got) != 1 || string(b.got[0].Payload) != "hi" {
		t.Fatalf("b.got = %v", b.got)
	}
	if n.Sched.Now() != 5*time.Millisecond {
		t.Errorf("delivery latency wrong: %v", n.Sched.Now())
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGatewayRouting(t *testing.T) {
	n := NewNetwork(1)
	lan := n.NewSegment("lan", "10.0.0.0/24", time.Millisecond)
	host := &echoDev{name: "host"}
	gw := &echoDev{name: "gw"}
	host.ifc = lan.Attach(host, inet.MustParseAddr("10.0.0.1"))
	gw.ifc = lan.Attach(gw, inet.MustParseAddr("10.0.0.254"))
	lan.SetGateway(gw.ifc)

	// Off-subnet destination goes to the gateway.
	host.ifc.Send(udpPkt(inet.EP("10.0.0.1", 1), inet.EP("155.99.25.11", 99), "x"))
	n.Sched.Run()
	if len(gw.got) != 1 {
		t.Fatalf("gateway did not receive off-subnet packet")
	}
	// On-subnet destination with no interface: unreachable, no gateway
	// fallback.
	host.got = nil
	host.ifc.Send(udpPkt(inet.EP("10.0.0.1", 1), inet.EP("10.0.0.77", 99), "y"))
	n.Sched.Run()
	if len(gw.got) != 1 {
		t.Errorf("on-subnet miss should not go to gateway")
	}
	if len(host.got) != 1 || host.got[0].Proto != inet.ICMP {
		t.Fatalf("sender should get ICMP unreachable, got %v", host.got)
	}
	if host.got[0].ICMP != inet.ICMPHostUnreachable {
		t.Errorf("ICMP type = %v", host.got[0].ICMP)
	}
	if host.got[0].Orig.Remote != inet.EP("10.0.0.77", 99) {
		t.Errorf("ICMP orig session = %v", host.got[0].Orig)
	}
}

func TestGatewayDoesNotBounceToSelf(t *testing.T) {
	// A gateway forwarding a packet out the same segment must not
	// receive it back; an unroutable destination yields ICMP instead.
	n := NewNetwork(1)
	lan := n.NewSegment("lan", "10.0.0.0/24", time.Millisecond)
	gw := &echoDev{name: "gw"}
	gw.ifc = lan.Attach(gw, inet.MustParseAddr("10.0.0.254"))
	lan.SetGateway(gw.ifc)

	gw.ifc.Send(udpPkt(inet.EP("1.2.3.4", 5), inet.EP("5.6.7.8", 9), "z"))
	n.Sched.Run()
	// The ICMP comes back to the gateway itself (it was the sender).
	if len(gw.got) != 1 || gw.got[0].Proto != inet.ICMP {
		t.Fatalf("gw.got = %v", gw.got)
	}
}

func TestICMPDoesNotTriggerICMP(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("core", "0.0.0.0/0", time.Millisecond)
	a := &echoDev{name: "a"}
	a.ifc = seg.Attach(a, inet.MustParseAddr("1.1.1.1"))
	pkt := &inet.Packet{Proto: inet.ICMP, ICMP: inet.ICMPHostUnreachable,
		Src: inet.EP("1.1.1.1", 0), Dst: inet.EP("9.9.9.9", 0), TTL: 64}
	a.ifc.Send(pkt)
	n.Sched.Run()
	if len(a.got) != 0 {
		t.Fatalf("ICMP error about an ICMP error: %v", a.got)
	}
	if n.Stats().Unreachable != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestLossInjection(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("lossy", "10.0.0.0/24", 0)
	seg.SetLoss(0.5)
	a := &echoDev{name: "a"}
	b := &echoDev{name: "b"}
	a.ifc = seg.Attach(a, inet.MustParseAddr("10.0.0.1"))
	b.ifc = seg.Attach(b, inet.MustParseAddr("10.0.0.2"))
	const total = 1000
	for i := 0; i < total; i++ {
		a.ifc.Send(udpPkt(inet.EP("10.0.0.1", 1), inet.EP("10.0.0.2", 2), "p"))
	}
	n.Sched.Run()
	got := len(b.got)
	if got < total/3 || got > 2*total/3 {
		t.Errorf("with 50%% loss, delivered %d of %d", got, total)
	}
	if n.Stats().Lost+uint64(got) != total {
		t.Errorf("lost+delivered != sent: %+v", n.Stats())
	}
}

func TestJitterSpreadsDeliveries(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("j", "10.0.0.0/24", time.Millisecond)
	seg.SetJitter(10 * time.Millisecond)
	a := &echoDev{name: "a"}
	b := &echoDev{name: "b"}
	a.ifc = seg.Attach(a, inet.MustParseAddr("10.0.0.1"))
	b.ifc = seg.Attach(b, inet.MustParseAddr("10.0.0.2"))
	times := map[time.Duration]bool{}
	n.SetHook(func(kind HookKind, _ *Segment, _ *Iface, _ *inet.Packet) {
		if kind == HookDeliver {
			times[n.Sched.Now()] = true
		}
	})
	for i := 0; i < 20; i++ {
		a.ifc.Send(udpPkt(inet.EP("10.0.0.1", 1), inet.EP("10.0.0.2", 2), "p"))
	}
	n.Sched.Run()
	if len(b.got) != 20 {
		t.Fatalf("delivered %d of 20", len(b.got))
	}
	if len(times) < 5 {
		t.Errorf("jitter produced only %d distinct delivery times", len(times))
	}
}

func TestTTLExpiry(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("lan", "10.0.0.0/24", 0)
	a := &echoDev{name: "a"}
	b := &echoDev{name: "b"}
	a.ifc = seg.Attach(a, inet.MustParseAddr("10.0.0.1"))
	b.ifc = seg.Attach(b, inet.MustParseAddr("10.0.0.2"))
	pkt := udpPkt(inet.EP("10.0.0.1", 1), inet.EP("10.0.0.2", 2), "x")
	pkt.TTL = 0
	a.ifc.Send(pkt)
	n.Sched.Run()
	if len(b.got) != 0 {
		t.Error("TTL-0 packet was delivered")
	}
	if n.Stats().Lost != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("lan", "10.0.0.0/24", 0)
	a := &echoDev{name: "a"}
	seg.Attach(a, inet.MustParseAddr("10.0.0.1"))
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach should panic")
		}
	}()
	seg.Attach(a, inet.MustParseAddr("10.0.0.1"))
}

func TestHookKinds(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("lan", "10.0.0.0/24", 0)
	a := &echoDev{name: "a"}
	b := &echoDev{name: "b"}
	a.ifc = seg.Attach(a, inet.MustParseAddr("10.0.0.1"))
	b.ifc = seg.Attach(b, inet.MustParseAddr("10.0.0.2"))
	kinds := map[HookKind]int{}
	n.SetHook(func(kind HookKind, _ *Segment, _ *Iface, _ *inet.Packet) { kinds[kind]++ })
	a.ifc.Send(udpPkt(inet.EP("10.0.0.1", 1), inet.EP("10.0.0.2", 2), "ok"))
	a.ifc.Send(udpPkt(inet.EP("10.0.0.1", 1), inet.EP("10.0.0.99", 2), "dead"))
	n.Sched.Run()
	if kinds[HookSend] != 2 || kinds[HookDeliver] != 2 || kinds[HookUnreachable] != 1 {
		// 2 delivers: the good packet + the ICMP error.
		t.Errorf("hook counts = %v", kinds)
	}
	for _, k := range []HookKind{HookSend, HookDeliver, HookLost, HookUnreachable} {
		if k.String() == "" {
			t.Error("empty hook name")
		}
	}
}

func TestRequestReplyRTT(t *testing.T) {
	n := NewNetwork(1)
	seg := n.NewSegment("core", "0.0.0.0/0", 25*time.Millisecond)
	cli := &echoDev{name: "cli"}
	srv := &echoDev{name: "srv"}
	cli.ifc = seg.Attach(cli, inet.MustParseAddr("1.1.1.1"))
	srv.ifc = seg.Attach(srv, inet.MustParseAddr("2.2.2.2"))
	srv.reply = func(pkt *inet.Packet) *inet.Packet {
		return udpPkt(pkt.Dst, pkt.Src, "pong")
	}
	cli.ifc.Send(udpPkt(inet.EP("1.1.1.1", 10), inet.EP("2.2.2.2", 20), "ping"))
	n.Sched.Run()
	if len(cli.got) != 1 || string(cli.got[0].Payload) != "pong" {
		t.Fatalf("cli.got = %v", cli.got)
	}
	if rtt := n.Sched.Now(); rtt != 50*time.Millisecond {
		t.Errorf("RTT = %v, want 50ms", rtt)
	}
}
