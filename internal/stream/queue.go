package stream

import "slices"

// byteQueue is a stream's buffered bytes in one direction — unacked
// and unsent on the send side, in order and unread on the receive
// side — as a FIFO whose every step costs what it moves, never what it
// holds. The live bytes are buf[head:], one contiguous range, so a
// frame can alias any part of it; consuming a prefix only advances
// head, and the bytes move down once the dead prefix is at least as
// long as they are, which is at most one byte copied per byte
// consumed. The price is capacity: a queue held at n bytes settles at
// an array of about 2n.
//
// A queue that drains parks its array in *spare (the Mux's) and the
// next queue of the session to fill from empty takes it back, so a
// stream that fills and drains forever allocates nothing, and a
// session's idle streams together hold one array, not one each.
//
// The receive side also writes past its end (WriteAt): an out-of-order
// segment lands at its own offset, and the bytes it skipped are
// whatever the array held there until their segment arrives. Which
// positions hold written bytes is the caller's to track.
type byteQueue struct {
	buf   []byte
	head  int
	spare *[]byte
}

// Len returns the number of queued bytes, counting any position a
// WriteAt skipped.
func (q *byteQueue) Len() int { return len(q.buf) - q.head }

// Bytes returns the queued bytes [from, to), aliasing the queue: valid
// until the next Append, WriteAt or Consume.
func (q *byteQueue) Bytes(from, to int) []byte {
	return q.buf[q.head+from : q.head+to : q.head+to]
}

// Append queues p after everything already queued.
func (q *byteQueue) Append(p []byte) { q.WriteAt(q.Len(), p) }

// WriteAt copies p to queue positions [at, at+len(p)), extending the
// queue to cover them.
func (q *byteQueue) WriteAt(at int, p []byte) {
	if len(p) == 0 {
		return
	}
	if q.buf == nil {
		q.buf, *q.spare = (*q.spare)[:0], nil
	}
	at += q.head
	if end := at + len(p); end > len(q.buf) {
		q.buf = slices.Grow(q.buf, end-len(q.buf))[:end]
	}
	copy(q.buf[at:], p)
}

// Consume drops the first n queued bytes.
func (q *byteQueue) Consume(n int) {
	q.head += n
	switch live := q.Len(); {
	case live == 0:
		q.Release()
	case q.head >= live:
		copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:live], 0
	}
}

// Release empties the queue and parks its array, unless a larger one
// is parked already.
func (q *byteQueue) Release() {
	if cap(q.buf) > cap(*q.spare) {
		*q.spare = q.buf[:0]
	}
	q.buf, q.head = nil, 0
}
