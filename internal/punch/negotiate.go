package punch

// Candidate negotiation: the dial every production client runs. S
// gives each peer the other's public and private endpoints
// (proto.TypeNegotiate, §3.2 step 2), the peers probe both on a
// paced, prioritized schedule (package ice orders it), lock in the
// first candidate whose check is answered — §3.2 step 3's "locks in
// whichever endpoint first elicits a valid response", over the whole
// candidate set — and fall back to the §2.2 relay at the deadline.
// Checks that arrive from endpoints S did not name (a symmetric NAT's
// fresh mapping, §5.1) become peer-reflexive candidates and are
// answered with triggered checks.
//
// A re-punch of a live session (migrate.go) is a negotiation under
// the session's nonce; its nomination migrates the session instead of
// adopting a new one.

import (
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/transport"
)

// checkPace staggers successive candidate first-probes, so the cheap
// high-priority paths get a head start before lower ones spend
// packets (RFC 8445 §6.1.4's pacing, collapsed to one constant).
const checkPace = 50 * time.Millisecond

// earlyChecks bounds the unclaimed checks a client remembers, however
// many arrive: a check that waits for details is one in flight, and a
// flood of made-up nonces only recycles the ring.
const earlyChecks = 8

// maxChecks bounds the checks a negotiation holds before a check from
// an unknown source may start one more: S's endpoint pair gives at
// most two, and a genuine peer shows us at most two sources (one
// mapping per endpoint of ours it checks, §5.1's symmetric NATs
// included). A check from past the bound is still acked, one ack per
// check, but starts no probe loop of its own.
const maxChecks = 4

// earlyCheck is one remembered check; nonce 0 marks an empty slot
// (clients never draw it, and a check carrying it is not kept).
type earlyCheck struct {
	from  inet.Endpoint
	nonce uint64
}

// negState is the negotiation half of a Client.
type negState struct {
	negs map[uint64]*negotiation
	// negByPeer indexes our own outbound negotiations: one per peer.
	negByPeer map[string]*negotiation
	// negInbound indexes the pending peer-initiated negotiations by
	// peer: relayed traffic names its sender but carries no nonce.
	negInbound map[string]*negotiation

	// early holds the last few connectivity checks whose nonce no
	// negotiation had claimed when they arrived, oldest overwritten
	// first: the requester starts checking as soon as S answers it,
	// so its first check can reach us before S's NegotiateDetails
	// naming that nonce does. handleNegotiateDetails answers them.
	early     [earlyChecks]earlyCheck
	earlyNext int
}

// negotiation is one in-progress candidate exchange + check schedule.
type negotiation struct {
	peer      string
	nonce     uint64
	requester bool
	cb        UDPCallbacks

	gotDetails bool
	checks     []*check // at most maxChecks+2: see answerCheck
	deadline   transport.Timer
	done       bool
	// established marks a negotiation whose session is already live —
	// a relay-first connect that adopted the relay floor up front, or
	// a background re-negotiation for an existing session. Its
	// remaining outcomes are silent: nomination *migrates* the live
	// session instead of adopting a new one, and every failure mode
	// leaves the session on its current path.
	established bool
}

// check is one candidate's probe loop.
type check struct {
	cand    ice.Candidate
	started bool
	timer   transport.Timer // start (pacing) or retransmission timer
}

// check returns the negotiation's check of ep, or nil.
func (n *negotiation) check(ep inet.Endpoint) *check {
	for _, ch := range n.checks {
		if ch.cand.Endpoint == ep {
			return ch
		}
	}
	return nil
}

func (n *negotiation) stop() {
	n.done = true
	if n.deadline != nil {
		n.deadline.Stop()
	}
	for _, ch := range n.checks {
		if ch.timer != nil {
			ch.timer.Stop()
		}
	}
}

// newNegotiation enters a negotiation in the client's tables and arms
// its deadline: PunchTimeout bounds the whole exchange, at which the
// relay is nominated or the attempt fails.
func (c *Client) newNegotiation(peer string, nonce uint64, requester bool, cb UDPCallbacks) *negotiation {
	n := &negotiation{peer: peer, nonce: nonce, requester: requester, cb: cb}
	c.negs[nonce] = n
	if requester {
		c.negByPeer[peer] = n
	} else {
		c.negInbound[peer] = n
	}
	n.deadline = c.after(c.cfg.PunchTimeout, func() { c.negotiationTimeout(n) })
	return n
}

// offer asks S to broker the negotiation: S answers with the peer's
// endpoint pair and sends the peer ours.
func (c *Client) offer(n *negotiation) {
	c.sendToServer(&proto.Message{
		Type: proto.TypeNegotiate, From: c.name, Target: n.peer, Nonce: n.nonce,
	})
}

// Connect starts a candidate negotiation toward peer. The outcome
// arrives via cb: Established with the nominated candidate (the relay
// at the deadline when RelayFallback is set), or Failed.
func (c *Client) Connect(peer string, cb UDPCallbacks) {
	if !c.udpRegistered {
		if cb.Failed != nil {
			cb.Failed(peer, ErrNotRegistered)
		}
		return
	}
	// Only our own outbound negotiations occupy the per-peer slot:
	// a responder-side negotiation must not block a crossing Connect.
	if c.negByPeer[peer] != nil {
		if cb.Failed != nil {
			cb.Failed(peer, ErrBusy)
		}
		return
	}
	c.offer(c.newNegotiation(peer, c.nonce(), true, cb))
}

// handleNegotiateDetails receives the peer's endpoint pair — as the
// requester (reply to our offer) or as the target (the forwarded
// offer; adopt the InboundUDP callbacks).
func (c *Client) handleNegotiateDetails(m *proto.Message) {
	n := c.negs[m.Nonce]
	if n == nil {
		if m.Requester {
			return // stale reply for a negotiation we no longer track
		}
		n = c.newNegotiation(m.From, m.Nonce, false, c.InboundUDP)
	}
	if n.gotDetails || n.done {
		return
	}
	n.gotDetails = true
	if s := c.udpSessions[n.peer]; s != nil && s.Nonce == n.nonce {
		// The peer is re-negotiating our live session (its nonce
		// proves it): this is a background upgrade, so nomination
		// must migrate the session, never replace it.
		n.established = true
	}
	if c.cfg.RelayFirst && !n.established && c.udpSessions[n.peer] == nil {
		// Relay-first connect: the candidate exchange completing
		// proves both ends are registered, so the §2.2 relay floor is
		// usable now. Establish through it immediately and keep the
		// checks running; the first ack migrates the live session
		// onto the nominated direct path.
		n.established = true
		c.adoptRelay(n)
	}
	cands := ice.BuildChecks(c.udpPublic, m.Public, m.Private, c.cfg.ICE)
	for i, cand := range cands {
		if n.check(cand.Endpoint) != nil {
			// Already discovered (and probing) via an inbound check
			// that beat the details here; don't start a second loop.
			continue
		}
		ch := &check{cand: cand}
		n.checks = append(n.checks, ch)
		// Paced first probes: check i starts i*checkPace after the
		// details arrive (RFC 8445 §6.1.4), so high-priority candidates
		// get a head start without serializing the whole schedule.
		d := time.Duration(i) * checkPace
		ch.timer = c.after(d, func() { c.startCheck(n, ch) })
	}
	// Checks that beat these details here are answered now, as if
	// they had just arrived, instead of waiting out the requester's
	// retransmission.
	for i, e := range c.early {
		if e.nonce != 0 && e.nonce == n.nonce {
			c.early[i] = earlyCheck{}
			c.answerCheck(n, e.from)
		}
	}
}

// startCheck begins (or continues) one candidate's probe loop.
func (c *Client) startCheck(n *negotiation, ch *check) {
	if n.done || c.closed {
		return
	}
	ch.started = true
	c.sendUDP(ch.cand.Endpoint, &proto.Message{
		Type: proto.TypePunch, From: c.name, Nonce: n.nonce,
	})
	ch.timer = c.after(ProbeInterval, func() { c.startCheck(n, ch) })
}

// answerCheck answers a connectivity check for an active negotiation:
// ack the probe, and run the triggered check back at the observed
// source — discovering it as a peer-reflexive (or hairpin) candidate
// when S's pair did not name it (§5.1's fresh symmetric mappings),
// while the negotiation holds fewer than maxChecks.
func (c *Client) answerCheck(n *negotiation, from inet.Endpoint) {
	c.sendUDP(from, &proto.Message{
		Type: proto.TypePunchAck, From: c.name, Nonce: n.nonce,
	})
	ch := n.check(from)
	if ch == nil {
		if len(n.checks) >= maxChecks {
			return
		}
		k := ice.ClassifyDiscovery(c.udpPublic, from)
		ch = &check{cand: ice.Candidate{Kind: k, Endpoint: from}}
		n.checks = append(n.checks, ch)
	}
	if !ch.started {
		// Triggered check: jump the pacing queue — the path provably
		// carries traffic in one direction already.
		if ch.timer != nil {
			ch.timer.Stop()
		}
		c.startCheck(n, ch)
	}
}

// nominate locks in the first candidate whose check elicited a valid
// answer — a check-ack, or session data that overtook it.
func (c *Client) nominate(n *negotiation, from inet.Endpoint) {
	chosen := ice.Candidate{Kind: ice.ClassifyDiscovery(c.udpPublic, from), Endpoint: from}
	if ch := n.check(from); ch != nil {
		chosen = ch.cand
	}
	c.finishNegotiation(n)

	via := MethodPublic
	if chosen.Kind == ice.KindPrivate {
		via = MethodPrivate
	}
	if n.established {
		// Background nomination for a live session: migrate it in
		// place (drain-then-switch) instead of adopting a new one.
		if s := c.udpSessions[n.peer]; s != nil && s.Nonce == n.nonce {
			s.migrateTo(from, via)
		}
		return
	}
	c.adopt(n, from, via, chosen)
}

// negotiationTimeout fires at the negotiation deadline: nominate the
// relay candidate — the floor that always works while both clients
// can reach S (§2.2) — or report failure without RelayFallback.
func (c *Client) negotiationTimeout(n *negotiation) {
	if n.done || c.closed {
		return
	}
	c.finishNegotiation(n)
	if n.established {
		// The checks never completed, but the session has been live on
		// the relay all along; it simply stays there (periodic
		// re-punching keeps trying for a direct path).
		return
	}
	if c.cfg.RelayFallback {
		c.adoptRelay(n)
		return
	}
	if n.cb.Failed != nil {
		n.cb.Failed(n.peer, ErrPunchTimeout)
	}
}

// adopt enters the session negotiation n nominated, replacing any
// previous session with the peer, and reports it.
func (c *Client) adopt(n *negotiation, remote inet.Endpoint, via Method, chosen ice.Candidate) {
	s := c.newUDPSession(n.peer, remote, via, n.nonce, n.cb)
	if n.cb.Established != nil {
		n.cb.Established(s, chosen)
	}
}

// adoptRelay adopts the §2.2 relay floor for negotiation n.
func (c *Client) adoptRelay(n *negotiation) {
	relay, _ := c.relayRoute(n.peer)
	c.adopt(n, inet.Endpoint{}, MethodRelay, ice.Candidate{Kind: ice.KindRelay, Endpoint: relay})
}

// renegotiate is a background re-punch for a live session: a full
// negotiation under the session's existing nonce, so upgrades explore
// the same candidate set that established the session (including
// peer-reflexive discovery, §5.1).
func (c *Client) renegotiate(peer string, nonce uint64) {
	if !c.udpRegistered || c.negs[nonce] != nil || c.negByPeer[peer] != nil {
		return // not negotiable right now, or already negotiating
	}
	n := c.newNegotiation(peer, nonce, true, UDPCallbacks{})
	n.established = true
	c.offer(n)
}

// Abort cancels every in-flight negotiation we initiated with peer
// without firing callbacks — the release path for context-cancelled
// dials. Responder-side negotiations are untouched so a cancelled
// dial cannot kill the peer's crossing dial. It reports whether
// anything was cancelled.
func (c *Client) Abort(peer string) bool {
	aborted := false
	//natlint:ignore maporder retiring stops timers and drops index entries; no callback fires and nothing is sent
	for _, n := range c.negs {
		if n.peer == peer && n.requester && !n.done {
			c.finishNegotiation(n)
			aborted = true
		}
	}
	return aborted
}

// finishNegotiation retires a negotiation: stop timers, release indexes.
func (c *Client) finishNegotiation(n *negotiation) {
	n.stop()
	delete(c.negs, n.nonce)
	if c.negByPeer[n.peer] == n {
		delete(c.negByPeer, n.peer)
	}
	if c.negInbound[n.peer] == n {
		delete(c.negInbound, n.peer)
	}
}
