//go:build !linux

package realudp

// batchState: no syscall scratch where every datagram is its own
// system call.
type batchState struct{}

// WriteBatch sends the datagrams one system call each, preserving
// order; see writeEach.
func (bc *BatchConn) WriteBatch(ms []Datagram) (int, error) { return bc.writeEach(ms) }

// ReadBatch blocks for one datagram, filling ms[0]; see readOne.
func (bc *BatchConn) ReadBatch(ms []Datagram) (int, error) { return bc.readOne(ms) }

// enableGRO: no coalesced receives off Linux.
func (bc *BatchConn) enableGRO() {}

// readBatch is ReadBatch: every entry is one datagram. A read fills
// one slot whatever is queued behind it, so it reports waited: nothing
// here is evidence of a backlog a second slot would take, and the read
// loop stays at one.
func (bc *BatchConn) readBatch(ms []Datagram, segs []int) (n int, waited bool, err error) {
	clear(segs)
	n, err = bc.readOne(ms)
	return n, true, err
}
