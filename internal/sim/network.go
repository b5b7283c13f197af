package sim

import (
	"fmt"
	"time"

	"natpunch/internal/inet"
)

// Device is anything attached to the network that can receive
// packets: hosts, NATs, routers, measurement taps.
type Device interface {
	// Name identifies the device in traces ("client-A", "NAT-C").
	Name() string
	// Receive handles a packet arriving on one of the device's
	// interfaces. It runs inside the event loop; implementations may
	// send packets and set timers but must not block.
	Receive(ifc *Iface, pkt *inet.Packet)
}

// HookKind classifies fabric-level trace events.
type HookKind uint8

// Fabric trace event kinds.
const (
	HookSend        HookKind = iota + 1 // packet handed to a segment
	HookDeliver                         // packet delivered to an interface
	HookLost                            // packet dropped by loss injection
	HookUnreachable                     // no route; ICMP error generated
)

// String names the hook kind.
func (k HookKind) String() string {
	switch k {
	case HookSend:
		return "send"
	case HookDeliver:
		return "deliver"
	case HookLost:
		return "lost"
	case HookUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("hook(%d)", uint8(k))
	}
}

// Hook observes fabric events. seg is the segment involved; ifc is
// the sending interface for HookSend/HookLost/HookUnreachable and the
// receiving interface for HookDeliver.
type Hook func(kind HookKind, seg *Segment, ifc *Iface, pkt *inet.Packet)

// Stats counts fabric activity.
type Stats struct {
	Sent        uint64
	Delivered   uint64
	Lost        uint64
	Unreachable uint64
}

// Network owns the scheduler, hook, filter and fabric counters shared
// by the segments making up a simulated internetwork.
type Network struct {
	Sched  *Scheduler
	hook   Hook
	filter func(src, dst inet.Endpoint) bool
	stats  Stats
}

// NewNetwork creates an empty network with a deterministic scheduler.
func NewNetwork(seed int64) *Network {
	return &Network{Sched: NewScheduler(seed)}
}

// SetHook installs a fabric trace hook (nil disables tracing).
func (n *Network) SetHook(h Hook) { n.hook = h }

// SetFilter installs a drop filter consulted on every hop: a packet
// whose transport endpoints make f return false is discarded (counted
// as Lost) before any routing. Nil removes the filter. Used by chaos
// tests to model path blackouts deterministically. The endpoint
// signature (rather than *inet.Packet) lets the public simnet facade
// expose it via the transport.Endpoint alias without importing inet.
func (n *Network) SetFilter(f func(src, dst inet.Endpoint) bool) { n.filter = f }

// Stats returns a copy of the fabric counters.
func (n *Network) Stats() Stats { return n.stats }

// Segment is a broadcast domain: a subnet with attached interfaces,
// an optional default gateway, and link characteristics. It models
// one address realm edge: a home LAN, an ISP's private realm, or the
// public Internet core (prefix 0.0.0.0/0).
type Segment struct {
	net     *Network
	name    string
	prefix  inet.Prefix
	latency time.Duration
	jitter  time.Duration
	loss    float64
	ifaces  map[inet.Addr]*Iface
	gateway *Iface
}

// NewSegment adds a segment with the given CIDR subnet and one-way
// delivery latency.
func (n *Network) NewSegment(name, cidr string, latency time.Duration) *Segment {
	return &Segment{
		net:     n,
		name:    name,
		prefix:  inet.MustParsePrefix(cidr),
		latency: latency,
		ifaces:  make(map[inet.Addr]*Iface),
	}
}

// Name returns the segment's trace name.
func (s *Segment) Name() string { return s.name }

// SetLatency changes the one-way delivery latency; experiments use it
// to create timing asymmetries mid-run.
func (s *Segment) SetLatency(d time.Duration) { s.latency = d }

// SetLoss sets the independent per-packet loss probability.
func (s *Segment) SetLoss(p float64) { s.loss = p }

// SetJitter adds a uniform random extra delay in [0, j) per delivery.
func (s *Segment) SetJitter(j time.Duration) { s.jitter = j }

// SetGateway nominates the interface that receives packets destined
// outside the segment's subnet (typically a NAT's inside interface or
// a router).
func (s *Segment) SetGateway(ifc *Iface) { s.gateway = ifc }

// Gateway returns the segment's default gateway interface, or nil.
func (s *Segment) Gateway() *Iface { return s.gateway }

// Attach connects a device to the segment at the given address. It
// panics if the address is already taken, which is a topology bug.
func (s *Segment) Attach(dev Device, addr inet.Addr) *Iface {
	if _, dup := s.ifaces[addr]; dup {
		panic(fmt.Sprintf("sim: address %s already attached on segment %s", addr, s.name))
	}
	ifc := &Iface{dev: dev, seg: s, addr: addr}
	s.ifaces[addr] = ifc
	return ifc
}

// Iface is one attachment point of a device on a segment.
type Iface struct {
	dev  Device
	seg  *Segment
	addr inet.Addr
}

// Addr returns the interface's address.
func (i *Iface) Addr() inet.Addr { return i.addr }

// String renders "device/addr@segment".
func (i *Iface) String() string {
	return fmt.Sprintf("%s/%s@%s", i.dev.Name(), i.addr, i.seg.name)
}

// Send routes pkt one hop across the interface's segment: to the
// interface owning the destination address if it is local, otherwise
// to the segment's default gateway. Packets that cannot be routed
// generate an ICMP host-unreachable back to the sender, which is what
// lets TCP connect attempts to dead addresses fail fast (§4.2 step 4
// requires clients to retry after such errors).
func (i *Iface) Send(pkt *inet.Packet) {
	s := i.seg
	n := s.net
	n.stats.Sent++
	if n.hook != nil {
		n.hook(HookSend, s, i, pkt)
	}

	if pkt.TTL == 0 {
		// Forwarding loop guard; silently drop.
		n.stats.Lost++
		if n.hook != nil {
			n.hook(HookLost, s, i, pkt)
		}
		return
	}

	if n.filter != nil && !n.filter(pkt.Src, pkt.Dst) {
		n.stats.Lost++
		if n.hook != nil {
			n.hook(HookLost, s, i, pkt)
		}
		return
	}

	var target *Iface
	if t, ok := s.ifaces[pkt.Dst.Addr]; ok && t != i {
		target = t
	} else if !s.prefix.Contains(pkt.Dst.Addr) && s.gateway != nil && s.gateway != i {
		target = s.gateway
	}

	if target == nil {
		n.stats.Unreachable++
		if n.hook != nil {
			n.hook(HookUnreachable, s, i, pkt)
		}
		if pkt.Proto != inet.ICMP {
			s.deliver(i, i, hostUnreachable(pkt))
		}
		return
	}

	if s.loss > 0 && n.Sched.Rand().Float64() < s.loss {
		n.stats.Lost++
		if n.hook != nil {
			n.hook(HookLost, s, i, pkt)
		}
		return
	}

	s.deliver(i, target, pkt)
}

// deliver schedules the packet's arrival at target after the
// segment's latency (plus jitter), on the scheduler's allocation-free
// delivery path.
func (s *Segment) deliver(from, target *Iface, pkt *inet.Packet) {
	n := s.net
	d := s.latency
	if s.jitter > 0 {
		d += time.Duration(n.Sched.Rand().Int63n(int64(s.jitter)))
	}
	n.Sched.scheduleDelivery(d, target, pkt)
}

// deliverNow hands an arrived packet to the interface's device; the
// scheduler invokes it when a delivery event fires.
func (i *Iface) deliverNow(pkt *inet.Packet) {
	n := i.seg.net
	n.stats.Delivered++
	if n.hook != nil {
		n.hook(HookDeliver, i.seg, i, pkt)
	}
	i.dev.Receive(i, pkt)
}

// hostUnreachable builds the ICMP error returned to the sender of an
// unroutable packet. Orig carries the failed packet's session (from
// the sender's perspective) so stacks and NATs can attribute the
// error to the right socket or mapping.
func hostUnreachable(pkt *inet.Packet) *inet.Packet {
	return &inet.Packet{
		Proto:     inet.ICMP,
		ICMP:      inet.ICMPHostUnreachable,
		Src:       inet.Endpoint{Addr: pkt.Dst.Addr},
		Dst:       pkt.Src,
		TTL:       inet.DefaultTTL,
		Orig:      pkt.Session(),
		OrigProto: pkt.Proto,
	}
}
