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
// dependency-free); elsewhere they degrade to per-datagram loops with
// the same semantics. The transport's batched read loop is built on
// it, and it is exported so load generators (benchmarks, traffic
// tools) can drive a batched socket at the same syscall amortization
// as the server under test. ReadBatch fills one datagram per entry
// whatever the sender did; only the transport's own read loop asks the
// kernel for coalesced runs (UDP GRO).
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

// Batched reports whether this platform's WriteBatch/ReadBatch use
// kernel batching (sendmmsg/recvmmsg) rather than per-datagram loops.
func (bc *BatchConn) Batched() bool { return batchSupported }
