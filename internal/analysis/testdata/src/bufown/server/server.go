// Package server exercises the bufown analyzer: callback-scoped
// payloads, decoder-owned Message fields, and reused scratch must not
// escape their callback without a copy.
package server

import "buffix/proto"

// Sock is the OnRecv/SendTo transport seam.
type Sock interface {
	OnRecv(fn func(from string, p []byte))
	SendTo(to string, p []byte)
}

// Entries is the transport's end-of-entry hook (transport.Deferrer).
type Entries interface {
	Defer(fn func())
}

// lastGlobal is a package-level retention target.
var lastGlobal []byte

// Server mirrors the rendezvous server's zero-alloc hot path: enc,
// fedScratch, and scratchMsg are configured scratch fields.
type Server struct {
	udp        Sock
	tr         Entries
	flushAtEnd func()
	enc        []byte
	fedScratch []byte
	scratchMsg proto.Message

	last  []byte
	byKey map[string][]byte
	ch    chan []byte
	queue [][]byte
	pend  []datagram
}

type datagram struct {
	to      string
	payload []byte
}

// Register installs the named-method callback.
func (s *Server) Register() {
	s.udp.OnRecv(s.handleUDP)
}

func (s *Server) handleUDP(from string, p []byte) {
	s.last = p                   // want bufown "stored to field"
	s.byKey[from] = p            // want bufown "inserted into a map"
	s.ch <- p                    // want bufown "sent on a channel"
	s.queue = append(s.queue, p) // want bufown "stored to field"
	lastGlobal = p               // want bufown "stored to package variable"
	go func() {                  // want bufown "captured by a go closure"
		s.observe(p)
	}()
	defer func() { // want bufown "captured by a defer closure"
		s.observe(p)
	}()

	// The end of the entry is after the callback too: by then the rest
	// of the delivered batch has been through this callback.
	s.tr.Defer(func() { s.observe(p) }) // want bufown "passed to a Defer call"
	s.tr.Defer(s.flushAtEnd)            // a function built beforehand captures nothing of this call

	// An alias carries the taint.
	alias := p[1:]
	s.last = alias // want bufown "stored to field"

	// A local value struct may hold the payload...
	var d datagram
	d.payload = p
	// ...but then escapes carry it out.
	s.pend = append(s.pend, d) // want bufown "stored to field"

	// Copies launder: these are all clean.
	cp := append([]byte(nil), p...)
	s.last = cp
	s.byKey[from] = cp
	key := string(p)
	_ = key
	s.tr.Defer(func() { s.observe(cp) })
}

// RegisterLiteral installs a literal callback directly.
func (s *Server) RegisterLiteral() {
	s.udp.OnRecv(func(from string, p []byte) {
		s.last = p // want bufown "stored to field"
	})
}

// handleMsg receives a decoder-owned Message: its slice fields are
// callback-scoped even though the function is not itself an OnRecv
// callback.
func (s *Server) handleMsg(from string, m *proto.Message) {
	s.last = m.Data // want bufown "stored to field"
	// From is an interned string, safe to retain.
	s.byKey[m.From] = nil
	// Re-encoding allocates: clean.
	s.last = proto.Encode(m)
	// SendTo releases its payload on every transport: clean.
	s.udp.SendTo(from, m.Data)
	// The decoder reuses m.Data for the next datagram of the batch.
	s.tr.Defer(func() { s.observe(m.Data) }) // want bufown "passed to a Defer call"
	// So is m itself: by then it holds the batch's next message.
	s.tr.Defer(func() { s.handleLater(m) }) // want bufown "passed to a Defer call"
	// A field copied out beforehand is this message's: clean.
	seq := m.Seq
	s.tr.Defer(func() { s.note(seq) })
}

func (s *Server) handleLater(m *proto.Message) { s.note(m.Seq) }

func (s *Server) note(seq uint32) { _ = seq }

// sendScratch exercises the scratch rules: scratch absorbs
// callback-scoped data, exits through SendTo, and must not be
// retained anywhere else.
func (s *Server) sendScratch(from string, m *proto.Message) {
	out := &s.scratchMsg
	*out = proto.Message{Type: 2, From: m.From, Seq: m.Seq, Data: m.Data}
	s.enc = append(s.enc[:0], out.Data...)
	s.udp.SendTo(from, s.enc)
	s.last = s.enc // want bufown "reused scratch buffer stored to field"
}

func (s *Server) observe(p []byte) { _ = p }
