//go:build !linux

package realudp

// batchSupported: no kernel batching syscalls on this platform; the
// portable per-datagram loops below keep BatchConn's semantics.
const batchSupported = false

// batchState has no syscall scratch on the portable path.
type batchState struct{}

// WriteBatch sends the datagrams one syscall each, preserving order.
// It returns the number sent and the first error encountered.
func (bc *BatchConn) WriteBatch(ms []Datagram) (int, error) {
	for i := range ms {
		if _, err := bc.c.WriteToUDPAddrPort(ms[i].Payload, ms[i].Addr); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

// ReadBatch blocks for one datagram (the portable path cannot drain
// the socket without a second blocking call), filling ms[0].
func (bc *BatchConn) ReadBatch(ms []Datagram) (int, error) {
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

// enableGRO: no coalesced receives off Linux.
func (bc *BatchConn) enableGRO() {}

// readBatch is ReadBatch: every entry is one datagram.
func (bc *BatchConn) readBatch(ms []Datagram, segs []int) (int, error) {
	clear(segs)
	return bc.ReadBatch(ms)
}
