package punch

// Mid-session path migration (Config.PathUpgrade): the DCUtR-style
// lifecycle that production descendants of the paper converged on.
// A session is no longer pinned to the path that established it:
//
//   - relay -> direct *upgrade* when a background negotiation
//     (negotiate.go) nominates a direct path after a relay-first
//     connect;
//   - direct -> relay *failback* when §3.6 idle detection declares
//     the direct path dead (NAT rebind, mobility, expired mapping),
//     instead of terminal session death;
//   - background *re-punch* — a negotiation reusing the session's
//     authenticating nonce — to win the direct path back after a
//     failback.
//
// The cutover is drain-then-switch: the migrating sender transmits a
// TypeMigrate marker on the NEW path carrying the last sequence
// number it sent on the old one, then switches. The receiver keeps
// delivering old-path datagrams (seq <= marker) and holds new-path
// datagrams (seq > marker) until the old path drains or drainTimeout
// expires, then flushes the held datagrams in sequence order. The
// reorder buffer exists only inside the migration window, so normal
// UDP datagram semantics are untouched; because both paths preserve
// per-path ordering and the relay detour is strictly slower than the
// direct path it upgrades to, an in-order loss-free underlay yields a
// loss-free, reorder-free cutover.

import (
	"sort"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// heldDatagram buffers one new-path datagram during a drain window.
type heldDatagram struct {
	seq  uint32
	data []byte
}

// touchDirect records inbound traffic that arrived on the direct
// path. Relay receipts deliberately do not refresh lastDirectRecvT:
// a peer that failed back to the relay keeps the session alive, but
// must not mask that the direct path itself has gone dark — that
// masking is exactly what would leave our side transmitting into a
// black hole forever.
func (s *UDPSession) touchDirect() {
	s.lastRecvT = s.c.now()
	s.lastDirectRecvT = s.lastRecvT
}

// migrateTo switches the session's send path to (remote, via): the
// nomination half of the drain-then-switch cutover. The TypeMigrate
// marker travels on the NEW path before any data does, so the
// receiver learns the old path's final sequence number no later than
// the first post-switch datagram. Markers are only sent when the new
// path is direct: failback to the relay happens only once the old
// path is already declared dead, so there is nothing left to drain.
func (s *UDPSession) migrateTo(remote inet.Endpoint, via Method) {
	if s.closed || (via == s.Via && remote == s.Remote) {
		return
	}
	old := s.Via
	if via != MethodRelay {
		s.c.sendUDP(remote, &proto.Message{
			Type: proto.TypeMigrate, From: s.c.name, Nonce: s.Nonce, Seq: s.seq,
		})
	}
	s.Remote = remote
	s.Via = via
	if via == MethodRelay {
		s.relayVia, s.relayDynamic = s.c.relayRoute(s.Peer)
	}
	// The new path earns a fresh §3.6 window on both idle clocks.
	s.lastRecvT = s.c.now()
	s.lastDirectRecvT = s.lastRecvT
	s.pathChanged(old)
}

// failback moves a direct session onto the §2.2 relay floor after
// idle detection declared the direct path dead, then re-punches in
// the background to win the direct path back. The relay path now
// carries the death watch: if the peer is truly gone it answers
// nothing there either, and the session dies one DeadAfter later.
func (s *UDPSession) failback() {
	old := s.Via
	s.Via = MethodRelay
	s.relayVia, s.relayDynamic = s.c.relayRoute(s.Peer)
	now := s.c.now()
	s.lastRecvT, s.lastDirectRecvT, s.lastRepunch = now, now, now
	s.pathChanged(old)
	s.c.repunch(s)
}

func (s *UDPSession) pathChanged(old Method) {
	s.PathChanges++
	if s.cb.PathChanged != nil {
		s.cb.PathChanged(s, old, s.Via)
	}
}

// receive runs the drain-then-switch delivery discipline for one
// inbound data datagram (from either path; both carry the session's
// single sequence space).
func (s *UDPSession) receive(seq uint32, data []byte) {
	if s.draining && seq > s.drainTo {
		// New-path datagram overtaking the old path's in-flight tail:
		// hold it — a copy, data may be the decoder's — until the
		// drain completes.
		s.held = append(s.held, heldDatagram{seq: seq, data: append([]byte(nil), data...)})
		return
	}
	s.deliver(seq, data)
	if s.draining && s.recvSeq >= s.drainTo {
		s.finishDrain()
	}
}

func (s *UDPSession) deliver(seq uint32, data []byte) {
	if seq > s.recvSeq {
		s.recvSeq = seq
	}
	s.RecvDatagrams++
	if s.cb.Data != nil {
		s.cb.Data(s, data)
	}
}

// finishDrain flushes held new-path datagrams in sequence order and
// leaves the migration window.
func (s *UDPSession) finishDrain() {
	if !s.draining {
		return
	}
	s.draining = false
	if s.drainTimer != nil {
		s.drainTimer.Stop()
		s.drainTimer = nil
	}
	held := s.held
	s.held = nil
	sort.Slice(held, func(i, j int) bool { return held[i].seq < held[j].seq })
	for _, h := range held {
		s.deliver(h.seq, h.data)
	}
}

// handleMigrate processes the peer's drain marker: everything the
// peer sent on its old path carries seq <= m.Seq, so newer datagrams
// are held until that tail drains — or until drainTimeout concedes
// the tail was lost (real networks drop datagrams; the window must
// not hold application data hostage).
func (c *Client) handleMigrate(from inet.Endpoint, m *proto.Message) {
	if m.From == c.name {
		return
	}
	s := c.udpSessions[m.From]
	if s == nil || s.closed || s.Nonce != m.Nonce {
		return // unauthenticated (§3.4)
	}
	s.touchDirect()
	if s.recvSeq >= m.Seq {
		return // the old path already drained; switch is immediate
	}
	s.draining = true
	if m.Seq > s.drainTo {
		s.drainTo = m.Seq
	}
	if s.drainTimer != nil {
		s.drainTimer.Stop()
	}
	s.drainTimer = c.after(drainTimeout, s.finishDrain)
}

// repunch starts a background attempt at a direct path for a live
// session: a re-negotiation under the session's nonce, whose
// nomination migrates the session (negotiate.go).
func (c *Client) repunch(s *UDPSession) {
	if c.closed || s.closed || !c.cfg.PathUpgrade {
		return
	}
	c.renegotiate(s.Peer, s.Nonce)
}

// LookupUDPSession returns the live session with peer, or nil.
func (c *Client) LookupUDPSession(peer string) *UDPSession {
	return c.udpSessions[peer]
}
