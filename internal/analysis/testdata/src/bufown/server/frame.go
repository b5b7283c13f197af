package server

import "buffix/stream"

// handleFrame receives a parsed Frame by value: the struct is the
// callee's copy, but its Data is still the datagram's bytes.
func (s *Server) handleFrame(f stream.Frame) {
	s.last = f.Data // want bufown "stored to field"
	// A copy of the bytes is the callee's: clean.
	s.last = append([]byte(nil), f.Data...)
	// The scalar fields are plain values: clean.
	off := f.Off
	s.tr.Defer(func() { s.note(off) })
	s.tr.Defer(func() { s.observe(f.Data) }) // want bufown "passed to a Defer call"
}
