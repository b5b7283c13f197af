package inet

import (
	"fmt"
	"strings"
)

// Proto identifies the transport protocol of a simulated packet.
type Proto uint8

// Transport protocols understood by the simulator.
const (
	UDP Proto = iota + 1
	TCP
	ICMP
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case UDP:
		return "UDP"
	case TCP:
		return "TCP"
	case ICMP:
		return "ICMP"
	default:
		return fmt.Sprintf("Proto(%d)", uint8(p))
	}
}

// TCPFlags is the TCP control-flag bitset carried in simulated TCP
// segments.
type TCPFlags uint8

// TCP control flags.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagACK
)

// Has reports whether all flags in f2 are set in f.
func (f TCPFlags) Has(f2 TCPFlags) bool { return f&f2 == f2 }

// String renders the flags in tcpdump-like notation, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	if f.Has(FlagSYN) {
		parts = append(parts, "SYN")
	}
	if f.Has(FlagACK) {
		parts = append(parts, "ACK")
	}
	if f.Has(FlagFIN) {
		parts = append(parts, "FIN")
	}
	if f.Has(FlagRST) {
		parts = append(parts, "RST")
	}
	return strings.Join(parts, "|")
}

// ICMPType distinguishes the ICMP messages the simulator models.
type ICMPType uint8

// ICMP message types. Only destination-unreachable variants matter to
// hole punching: §5.2 notes some NATs reject unsolicited TCP SYNs with
// ICMP errors, and §4.2 step 4 requires clients to retry on such
// transient errors.
const (
	ICMPNone            ICMPType = 0
	ICMPHostUnreachable ICMPType = 1
	ICMPPortUnreachable ICMPType = 2
	ICMPAdminProhibited ICMPType = 3
)

// String names the ICMP type.
func (t ICMPType) String() string {
	switch t {
	case ICMPHostUnreachable:
		return "host-unreachable"
	case ICMPPortUnreachable:
		return "port-unreachable"
	case ICMPAdminProhibited:
		return "admin-prohibited"
	default:
		return fmt.Sprintf("icmp(%d)", uint8(t))
	}
}

// Packet is a simulated IP packet with its transport header fields
// flattened in. One concrete struct (rather than per-protocol types)
// keeps NAT translation and tracing simple and allocation-light.
type Packet struct {
	Proto Proto
	Src   Endpoint
	Dst   Endpoint
	TTL   uint8

	// TCP header fields; meaningful only when Proto == TCP.
	Flags TCPFlags
	Seq   uint32
	Ack   uint32

	// ICMP fields; meaningful only when Proto == ICMP. Orig carries
	// the transport session of the offending packet (as seen by the
	// sender of that packet) and OrigProto its transport protocol, so
	// the receiving stack can route the error to the right socket.
	ICMP      ICMPType
	Orig      Session
	OrigProto Proto

	Payload []byte
}

// DefaultTTL is the initial TTL placed on packets by host stacks.
const DefaultTTL = 64

// ShallowClone returns a copy of the packet that shares the payload
// slice with the original. It is the right clone for forwarders that
// rewrite only header fields (NAT translation, hairpinning, ICMP
// rewriting): trace consumers still see the original header, and the
// per-packet payload copy is avoided. Callers that mutate Payload
// must copy it first, as a mangling NAT does.
func (p *Packet) ShallowClone() *Packet {
	q := *p
	return &q
}

// Session returns the packet's transport session from the sender's
// perspective.
func (p *Packet) Session() Session {
	return Session{Local: p.Src, Remote: p.Dst}
}

// String renders a one-line summary, e.g.
// "UDP 10.0.0.1:4321->18.181.0.31:1234 len=12".
func (p *Packet) String() string {
	switch p.Proto {
	case TCP:
		return fmt.Sprintf("TCP %s->%s %s seq=%d ack=%d len=%d",
			p.Src, p.Dst, p.Flags, p.Seq, p.Ack, len(p.Payload))
	case ICMP:
		return fmt.Sprintf("ICMP %s->%s %s orig=%s", p.Src, p.Dst, p.ICMP, p.Orig)
	default:
		return fmt.Sprintf("%s %s->%s len=%d", p.Proto, p.Src, p.Dst, len(p.Payload))
	}
}
