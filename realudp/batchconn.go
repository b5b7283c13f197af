package realudp

import (
	"net"
	"net/netip"
	"syscall"
)

// Datagram is one UDP datagram for batched I/O: a peer address and a
// payload. For ReadBatch the Payload of each entry must be a
// full-length receive buffer; on return the filled entries have Addr
// set and Payload re-sliced to the received length (callers reusing a
// Datagram slice re-extend the buffers before the next call).
type Datagram struct {
	Addr    netip.AddrPort
	Payload []byte
}

// BatchConn performs batched datagram I/O on a *net.UDPConn. On Linux
// WriteBatch and ReadBatch map to single sendmmsg(2)/recvmmsg(2)
// kernel crossings (stdlib syscall only — the module stays
// dependency-free); elsewhere they make one system call per datagram
// (writeEach, readOne) with the same semantics. It is the one seam
// between platforms: the transport's read loop and send queue are
// built on it everywhere, and it is exported so load generators
// (benchmarks, traffic tools) can drive a batched socket at the same
// syscall amortization as the server under test. ReadBatch fills one
// datagram per entry whatever the sender did; only the transport's own
// read loop asks the kernel for coalesced runs (UDP GRO).
//
// A BatchConn supports one concurrent reader and one concurrent
// writer: ReadBatch and WriteBatch own disjoint scratch state, but
// neither may be called concurrently with itself.
type BatchConn struct {
	c    *net.UDPConn
	rc   syscall.RawConn
	send batchState
	recv batchState
}

// NewBatchConn wraps an existing bound socket for batched I/O.
func NewBatchConn(c *net.UDPConn) (*BatchConn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &BatchConn{c: c, rc: rc}, nil
}

// writeEach sends the datagrams one system call each, in order. It
// returns the number sent and the first error: ms[n] is the datagram
// that failed, and nothing behind it was sent.
func (bc *BatchConn) writeEach(ms []Datagram) (int, error) {
	for i := range ms {
		if _, err := bc.c.WriteToUDPAddrPort(ms[i].Payload, ms[i].Addr); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

// readOne blocks for one datagram and fills ms[0] with it: a single
// system call cannot drain the socket without risking a second
// blocking one.
func (bc *BatchConn) readOne(ms []Datagram) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := bc.c.ReadFromUDPAddrPort(ms[0].Payload)
	if err != nil {
		return 0, err
	}
	ms[0].Addr = addr
	ms[0].Payload = ms[0].Payload[:n]
	return 1, nil
}
