// Package realnet holds the §4.1 socket arrangement on real sockets:
// "use a single local TCP port to listen for incoming TCP connections
// and to initiate multiple outgoing TCP connections concurrently",
// which needs SO_REUSEADDR (and SO_REUSEPORT on BSD-derived systems)
// set on every socket sharing the port.
package realnet

import (
	"net"
	"syscall"
)

// controlReuse sets SO_REUSEADDR (+SO_REUSEPORT where available) on a
// raw socket before bind.
func controlReuse(network, address string, c syscall.RawConn) error {
	var serr error
	err := c.Control(func(fd uintptr) {
		serr = setReuse(fd)
	})
	if err != nil {
		return err
	}
	return serr
}

// ListenTCPReuse opens a TCP listener with address reuse enabled, so
// outgoing connections may share its local port.
func ListenTCPReuse(addr string) (net.Listener, error) {
	lc := net.ListenConfig{Control: controlReuse}
	return lc.Listen(nil2ctx(), "tcp4", addr)
}

// DialTCPFromPort dials raddr with the local endpoint fixed to laddr
// and address reuse enabled — the socket arrangement of Figure 7.
func DialTCPFromPort(laddr, raddr string) (net.Conn, error) {
	local, err := net.ResolveTCPAddr("tcp4", laddr)
	if err != nil {
		return nil, err
	}
	d := net.Dialer{LocalAddr: local, Control: controlReuse}
	return d.Dial("tcp4", raddr)
}
