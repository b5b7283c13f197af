package server

// The in-place send seam (transport.InPlaceSender): Reserve lends the
// tail of the socket's send queue, the datagram is appended there, and
// Commit hands it back. Between the two the buffer is the caller's;
// after Commit it is the next datagram's, so nothing that outlives the
// function may hold it.

// Lender is a socket that lends its send buffer.
type Lender interface {
	Reserve() []byte
	Commit(to string, p []byte) error
}

func (s *Server) sendInPlace(l Lender, to string, body []byte) {
	// The intended shape: reserve, append, commit — including through a
	// SendTo-shaped call, which only inbound payloads may not reach.
	p := l.Reserve()
	p = append(p, 0xF0)
	p = append(p, body...)
	l.Commit(to, p)
	s.udp.SendTo(to, p)

	s.last = p      // want bufown "lent by Reserve stored to field"
	s.byKey[to] = p // want bufown "inserted into a map"
	s.ch <- p[1:]   // want bufown "sent on a channel"
	lastGlobal = p  // want bufown "stored to package variable"
	go func() {     // want bufown "captured by a go closure"
		s.observe(p)
	}()
	defer func() { // want bufown "captured by a defer closure"
		s.observe(p)
	}()
	// The end-of-entry hook runs after the Commit that gave the buffer
	// back, and after whatever was queued behind it.
	s.tr.Defer(func() { // want bufown "passed to a Defer call"
		l.Commit(to, p)
	})

	// What append returns is still the lent buffer, spread or not.
	q := append(l.Reserve(), body...)
	s.queue = append(s.queue, q)                                // want bufown "stored to field"
	s.pend = append(s.pend, datagram{to: to, payload: tail(q)}) // want bufown "stored to field"

	// A copy is the caller's own.
	kept := append([]byte(nil), p...)
	s.last = kept
}

// Reserve with arguments, or returning something else, is not the seam.
type pool struct{}

func (pool) Reserve(n int) []byte { return make([]byte, 0, n) }

func (s *Server) fromPool(pl pool) {
	s.last = pl.Reserve(64)
}
