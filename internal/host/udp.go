package host

import (
	"natpunch/internal/inet"
)

// UDPSocket is a bound UDP socket on a simulated host. A single UDP
// socket suffices to talk to the rendezvous server and any number of
// peers simultaneously (§4.2 contrasts this with TCP's socket-per-
// connection model).
type UDPSocket struct {
	h       *Host
	local   inet.Endpoint
	onRecv  func(from inet.Endpoint, payload []byte)
	onError func(about inet.Endpoint, err error)
	closed  bool
}

// UDPBind binds a UDP socket to the given local port (0 allocates an
// ephemeral port). The socket's address is the host's primary
// address.
func (h *Host) UDPBind(port inet.Port) (*UDPSocket, error) {
	if len(h.ifcs) == 0 {
		return nil, ErrNoRoute
	}
	if port == 0 {
		p, err := h.allocEphemeral(func(p inet.Port) bool {
			_, used := h.udpSocks[p]
			return used
		})
		if err != nil {
			return nil, err
		}
		port = p
	} else if _, used := h.udpSocks[port]; used {
		return nil, ErrAddrInUse
	}
	s := &UDPSocket{h: h, local: inet.Endpoint{Addr: h.Addr(), Port: port}}
	h.udpSocks[port] = s
	return s, nil
}

// Local returns the socket's bound endpoint — the client's *private
// endpoint* in the paper's terminology (§3.1).
func (s *UDPSocket) Local() inet.Endpoint { return s.local }

// OnRecv sets the datagram delivery callback.
func (s *UDPSocket) OnRecv(fn func(from inet.Endpoint, payload []byte)) { s.onRecv = fn }

// SendTo transmits a datagram to the given endpoint. The packet it
// queues carries its own copy of payload, so the caller may reuse the
// slice as soon as SendTo returns (the transport.UDPConn contract).
func (s *UDPSocket) SendTo(to inet.Endpoint, payload []byte) error {
	if s.closed {
		return ErrSocketClose
	}
	s.h.send(&inet.Packet{
		Proto: inet.UDP, Src: s.local, Dst: to, TTL: inet.DefaultTTL,
		Payload: append([]byte(nil), payload...),
	})
	return nil
}

// Close releases the socket and its port.
func (s *UDPSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.h.udpSocks[s.local.Port] == s {
		delete(s.h.udpSocks, s.local.Port)
	}
}

func (h *Host) receiveUDP(pkt *inet.Packet) {
	s, ok := h.udpSocks[pkt.Dst.Port]
	if !ok || s.closed {
		if !h.SilentToClosedPorts {
			h.send(&inet.Packet{
				Proto: inet.ICMP, ICMP: inet.ICMPPortUnreachable,
				Src: inet.Endpoint{Addr: h.Addr()}, Dst: pkt.Src,
				TTL: inet.DefaultTTL, Orig: pkt.Session(), OrigProto: inet.UDP,
			})
		}
		return
	}
	if s.onRecv != nil {
		s.onRecv(pkt.Src, pkt.Payload)
	}
}
