package server

// Alias summaries: a same-package helper whose result slices a
// parameter does not launder taint — the relay's readEP framing helper
// is the real-tree shape (tag parsing returns the payload's tail).

func tail(b []byte) []byte {
	return b[1:]
}

func split(b []byte) (byte, []byte) {
	if len(b) == 0 {
		return 0, nil
	}
	return b[0], b[1:]
}

func cloned(b []byte) []byte {
	return append([]byte(nil), b...)
}

func (s *Server) handleFramed(from string, p []byte) {
	rest := tail(p)
	s.last = rest // want bufown "stored to field"

	tag, body := split(p)
	_ = tag
	s.ch <- body // want bufown "sent on a channel"

	// A copying helper really does launder.
	cp := cloned(p)
	s.last = cp
}

func (s *Server) registerFramed() {
	s.udp.OnRecv(s.handleFramed)
}
