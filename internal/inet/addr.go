// Package inet defines the addressing and packet types used by the
// simulated network substrate: IPv4 addresses, transport endpoints,
// CIDR prefixes, and the packet structure carried between simulated
// devices.
//
// The simulator is IPv4-only, matching the paper's setting; the paper
// notes (§1) that hole punching remains relevant under IPv6 firewalls,
// but every experiment in the evaluation concerns IPv4 NATs.
package inet

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The zero value is the
// unspecified address 0.0.0.0.
type Addr uint32

// Unspecified is the zero address 0.0.0.0.
const Unspecified Addr = 0

// AddrFrom4 builds an address from its four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "155.99.25.11".
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("inet: invalid IPv4 address %q", s)
	}
	var octets [4]byte
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("inet: invalid IPv4 address %q", s)
		}
		octets[i] = byte(n)
	}
	return AddrFrom4(octets[0], octets[1], octets[2], octets[3]), nil
}

// MustParseAddr is ParseAddr that panics on error, for constants in
// tests and topology builders.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets of the address.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	o := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o[0], o[1], o[2], o[3])
}

// Complement returns the bitwise one's complement of the address.
// The paper (§3.1, §5.3) recommends transmitting the complement of an
// IP address inside message payloads to defeat NATs that blindly
// rewrite payload bytes that look like private addresses.
func (a Addr) Complement() Addr { return ^a }

// Port is a 16-bit transport port number.
type Port uint16

// Endpoint is a transport session endpoint: an (IP address, port)
// pair, the unit of NAT translation throughout the paper (§2.1).
type Endpoint struct {
	Addr Addr
	Port Port
}

// EP is shorthand for constructing an Endpoint from a dotted-quad
// string and port, for tests and topology builders.
func EP(addr string, port Port) Endpoint {
	return Endpoint{MustParseAddr(addr), port}
}

// ParseEndpoint parses "addr:port" notation.
func ParseEndpoint(s string) (Endpoint, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Endpoint{}, fmt.Errorf("inet: missing port in endpoint %q", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Endpoint{}, err
	}
	p, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return Endpoint{}, fmt.Errorf("inet: invalid port in endpoint %q", s)
	}
	return Endpoint{a, Port(p)}, nil
}

// MustParseEndpoint is ParseEndpoint that panics on error.
func MustParseEndpoint(s string) Endpoint {
	ep, err := ParseEndpoint(s)
	if err != nil {
		panic(err)
	}
	return ep
}

// String formats the endpoint as "addr:port".
func (e Endpoint) String() string {
	return fmt.Sprintf("%s:%d", e.Addr, e.Port)
}

// IsZero reports whether the endpoint is the zero value.
func (e Endpoint) IsZero() bool { return e.Addr == 0 && e.Port == 0 }

// Less imposes the canonical (address, then port) total order on
// endpoints, for deterministic sorts of endpoint sets.
func (e Endpoint) Less(o Endpoint) bool {
	if e.Addr != o.Addr {
		return e.Addr < o.Addr
	}
	return e.Port < o.Port
}

// Session identifies a transport session from one host's perspective:
// the 4-tuple (local, remote) of §2.1.
type Session struct {
	Local, Remote Endpoint
}

// String formats the session as "local->remote".
func (s Session) String() string {
	return s.Local.String() + "->" + s.Remote.String()
}

// Prefix is a CIDR prefix describing a subnet, e.g. 10.0.0.0/8.
type Prefix struct {
	Addr Addr
	Bits int
}

// ParsePrefix parses "addr/bits" CIDR notation. The address is
// masked to the prefix length.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("inet: missing /bits in prefix %q", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("inet: invalid prefix length in %q", s)
	}
	return Prefix{a.mask(bits), bits}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (a Addr) mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a &^ (1<<(32-uint(bits)) - 1)
}

// Contains reports whether addr falls within the prefix.
func (p Prefix) Contains(addr Addr) bool {
	return addr.mask(p.Bits) == p.Addr
}

// Nth returns the n-th address within the prefix (n=0 is the network
// address). It panics if the prefix cannot hold n.
func (p Prefix) Nth(n int) Addr {
	if p.Bits < 32 && uint64(n) >= 1<<(32-uint(p.Bits)) {
		panic(fmt.Sprintf("inet: address %d out of range for %s", n, p))
	}
	return p.Addr + Addr(n)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}
