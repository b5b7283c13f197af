// Package host implements a simulated end host: one or more network
// interfaces, a UDP socket layer, and a TCP socket layer with the
// Berkeley-sockets port semantics that TCP hole punching depends on
// (§4.1 of the paper): by default one socket per local port, with
// SO_REUSEADDR allowing a listener and multiple outgoing connections
// to share a port.
//
// Hosts have a configurable OS flavor reproducing the two
// application-visible TCP hole punching behaviors of §4.3: BSD-style
// stacks complete the application's connect() when an incoming SYN
// matches an in-progress outbound session; Linux/Windows-style stacks
// prefer the listen socket, delivering a new socket via accept() and
// eventually failing the connect() with "address in use".
package host

import (
	"errors"
	"fmt"

	"natpunch/internal/inet"
	"natpunch/internal/sim"
	"natpunch/internal/tcp"
)

// OSFlavor selects the TCP demultiplexing behavior of §4.3.
type OSFlavor uint8

// OS flavors.
const (
	// BSDStyle: an incoming SYN whose session endpoints match an
	// in-progress connect() is associated with the connecting socket;
	// the connect succeeds and the listen socket sees nothing.
	BSDStyle OSFlavor = iota
	// LinuxStyle: the listen socket claims the incoming SYN, a new
	// socket is handed to accept(), and the overlapping connect()
	// fails with an "address in use" error.
	LinuxStyle
)

// String names the flavor.
func (f OSFlavor) String() string {
	if f == BSDStyle {
		return "BSD"
	}
	return "Linux"
}

// Socket-layer errors.
var (
	ErrAddrInUse   = errors.New("host: address already in use")
	ErrNoPorts     = errors.New("host: ephemeral ports exhausted")
	ErrSocketClose = errors.New("host: socket closed")
	ErrNoRoute     = errors.New("host: no interface attached")
)

// Host is a simulated end host.
type Host struct {
	name   string
	net    *sim.Network
	flavor OSFlavor
	ifcs   []*sim.Iface

	udpSocks  map[inet.Port]*UDPSocket
	tcpConns  map[inet.Session]*tcp.Conn
	listeners map[inet.Port]*TCPListener
	tcpBinds  map[inet.Port]*bindState

	nextEphemeral inet.Port

	// TCPConfig is applied to new TCP connections: how many times a
	// SYN is retried (zero takes tcp's default of 5). Segment size and
	// timers are package tcp's constants.
	TCPConfig tcp.Config

	// SilentToClosedPorts suppresses RST / ICMP-port-unreachable
	// replies to traffic for which no socket exists. Punching clients
	// keep the default (false) since real hosts answer; tests use it
	// to model dropped-by-firewall endpoints.
	SilentToClosedPorts bool
}

// bindState tracks TCP port ownership for SO_REUSEADDR semantics.
type bindState struct {
	refs     int
	reuseAll bool // every binder set ReuseAddr
}

// New creates a host. The flavor matters only for TCP hole punching
// (§4.3); BSDStyle is the default used throughout the experiments
// unless a test exercises the Linux path.
func New(n *sim.Network, name string, flavor OSFlavor) *Host {
	return &Host{
		name:          name,
		net:           n,
		flavor:        flavor,
		udpSocks:      make(map[inet.Port]*UDPSocket),
		tcpConns:      make(map[inet.Session]*tcp.Conn),
		listeners:     make(map[inet.Port]*TCPListener),
		tcpBinds:      make(map[inet.Port]*bindState),
		nextEphemeral: 49152,
	}
}

// Name implements sim.Device.
func (h *Host) Name() string { return h.name }

// Sched returns the simulation scheduler, for timer convenience.
func (h *Host) Sched() *sim.Scheduler { return h.net.Sched }

// Attach connects the host to a segment at addr. The first attached
// interface becomes the default route.
func (h *Host) Attach(seg *sim.Segment, addr inet.Addr) *sim.Iface {
	ifc := seg.Attach(h, addr)
	h.ifcs = append(h.ifcs, ifc)
	return ifc
}

// Addr returns the host's primary address (first interface), or the
// unspecified address if detached.
func (h *Host) Addr() inet.Addr {
	if len(h.ifcs) == 0 {
		return inet.Unspecified
	}
	return h.ifcs[0].Addr()
}

// send transmits via the primary interface. Packets addressed to the
// host itself are looped back locally, as a real stack's loopback
// path would (NAT Check's hairpin probe on an un-NATed host relies on
// this).
func (h *Host) send(pkt *inet.Packet) {
	if len(h.ifcs) == 0 {
		return
	}
	if pkt.Dst.Addr == h.Addr() {
		h.Sched().After(0, func() { h.Receive(nil, pkt) })
		return
	}
	h.ifcs[0].Send(pkt)
}

// Receive implements sim.Device: transport demultiplexing.
func (h *Host) Receive(_ *sim.Iface, pkt *inet.Packet) {
	switch pkt.Proto {
	case inet.UDP:
		h.receiveUDP(pkt)
	case inet.TCP:
		h.receiveTCP(pkt)
	case inet.ICMP:
		h.receiveICMP(pkt)
	}
}

func (h *Host) receiveICMP(pkt *inet.Packet) {
	// Orig is the failed packet's session from our perspective
	// (Local = the endpoint a socket here used as source).
	switch pkt.OrigProto {
	case inet.TCP:
		if c, ok := h.tcpConns[pkt.Orig]; ok {
			c.DeliverICMP(pkt)
		}
	case inet.UDP:
		if s, ok := h.udpSocks[pkt.Orig.Local.Port]; ok && s.onError != nil {
			s.onError(pkt.Orig.Remote, errFromICMP(pkt.ICMP))
		}
	}
}

func errFromICMP(t inet.ICMPType) error {
	return fmt.Errorf("icmp: %s", t)
}

// allocEphemeral returns a free ephemeral port for the given check
// function. The counter wraps within [49152, 65535].
func (h *Host) allocEphemeral(inUse func(inet.Port) bool) (inet.Port, error) {
	for i := 0; i < 16384; i++ {
		p := h.nextEphemeral
		h.nextEphemeral++
		if h.nextEphemeral == 0 {
			h.nextEphemeral = 49152
		}
		if !inUse(p) {
			return p, nil
		}
	}
	return 0, ErrNoPorts
}
