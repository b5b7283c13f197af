package ice

import (
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
	"natpunch/transport"
)

// Callbacks are the application-visible events of one negotiation.
// Established reports the nominated candidate alongside the adopted
// session, which is how the fleet attributes outcomes to candidate
// types; Data and Dead are installed on the adopted session.
type Callbacks struct {
	Established func(s *punch.UDPSession, chosen Candidate)
	Failed      func(peer string, err error)
	Data        func(*punch.UDPSession, []byte)
	Dead        func(*punch.UDPSession)
}

// Agent runs candidate negotiations on top of one punch.Client. It
// installs itself as the client's UDP message interceptor, claiming
// negotiation-details messages and the connectivity-check traffic of
// its own nonces; everything else — including established-session
// data, keep-alives, and re-acks for sessions it has nominated —
// stays on the client's native paths.
type Agent struct {
	c   *punch.Client
	cfg Config
	// punchTimeout is the client's: the bound on a whole negotiation
	// (at which the relay is nominated, or the attempt fails).
	punchTimeout time.Duration

	// Inbound supplies callbacks for negotiations initiated by peers
	// (the forwarded candidate offer arrives without any local Connect
	// call, like punch.Client.InboundUDP).
	Inbound Callbacks

	negs   map[uint64]*negotiation
	byPeer map[string]*negotiation
	// inbound indexes the pending peer-initiated negotiations by peer:
	// relayed traffic names its sender but carries no nonce.
	inbound map[string]*negotiation

	// early holds the last few connectivity checks whose nonce no
	// negotiation had claimed when they arrived, oldest overwritten
	// first: the requester starts checking as soon as S answers it,
	// so its first check can reach us before S's NegotiateDetails
	// naming that nonce does. handleDetails answers them.
	early     [earlyChecks]earlyCheck
	earlyNext int
}

// earlyChecks bounds the unclaimed checks an agent remembers, however
// many arrive: a check that waits for details is one in flight, and a
// flood of made-up nonces only recycles the ring.
const earlyChecks = 8

// earlyCheck is one remembered check; nonce 0 marks an empty slot
// (clients never draw it, and a check carrying it is not kept).
type earlyCheck struct {
	from  inet.Endpoint
	nonce uint64
}

// New attaches a negotiation agent to a punch client, taking its
// deadline from the client's configuration.
func New(c *punch.Client, cfg Config) *Agent {
	a := &Agent{
		c:            c,
		cfg:          cfg,
		punchTimeout: c.Config().PunchTimeout,
		negs:         make(map[uint64]*negotiation),
		byPeer:       make(map[string]*negotiation),
		inbound:      make(map[string]*negotiation),
	}
	c.SetUDPIntercept(a.intercept)
	c.OnRepunch = a.repunch
	return a
}

// Client returns the underlying punch client.
func (a *Agent) Client() *punch.Client { return a.c }

// Close abandons every in-flight negotiation without firing
// callbacks — for owners tearing the whole client down (a departing
// fleet peer accounts for the abandonment itself).
func (a *Agent) Close() {
	for _, n := range a.negs {
		n.stop()
	}
	a.negs = make(map[uint64]*negotiation)
	a.byPeer = make(map[string]*negotiation)
	a.inbound = make(map[string]*negotiation)
}

func (a *Agent) tr() transport.Transport { return a.c.Transport() }

// negotiation is one in-progress candidate exchange + check schedule.
type negotiation struct {
	peer      string
	nonce     uint64
	requester bool
	cb        Callbacks

	gotDetails bool
	checks     []*check
	byEP       map[inet.Endpoint]*check
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
	cand    Candidate
	started bool
	timer   transport.Timer // start (pacing) or retransmission timer
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

// localCandidates gathers what this client advertises: its private
// (self-observed) endpoint and its rendezvous-observed public one
// (§3.1's endpoint pair), minus ablated types. For un-NATed clients
// the two coincide and only the public candidate is sent.
func (a *Agent) localCandidates() []proto.Candidate {
	priv, pub := a.c.PrivateUDP(), a.c.PublicUDP()
	cands := []proto.Candidate{{
		Kind: proto.CandPublic, Priority: KindPublic.Priority(), Endpoint: pub,
	}}
	if !a.cfg.NoPrivate && priv != pub && !priv.IsZero() {
		cands = append(cands, proto.Candidate{
			Kind: proto.CandPrivate, Priority: KindPrivate.Priority(), Endpoint: priv,
		})
	}
	return cands
}

// Connect starts a negotiation toward peer. The outcome arrives via
// cb: Established with the nominated candidate (relay at the deadline
// when enabled), or Failed.
func (a *Agent) Connect(peer string, cb Callbacks) {
	if !a.c.UDPRegistered() {
		if cb.Failed != nil {
			cb.Failed(peer, punch.ErrNotRegistered)
		}
		return
	}
	// Only our own outbound negotiations occupy the per-peer slot:
	// a responder-side negotiation must not block a crossing Connect.
	if a.byPeer[peer] != nil {
		if cb.Failed != nil {
			cb.Failed(peer, punch.ErrBusy)
		}
		return
	}
	n := &negotiation{
		peer: peer, nonce: a.c.NextNonce(), requester: true, cb: cb,
		byEP: make(map[inet.Endpoint]*check),
	}
	a.negs[n.nonce] = n
	a.byPeer[peer] = n
	n.deadline = a.tr().After(a.punchTimeout, func() { a.timeout(n) })
	a.c.SendUDPMessage(a.c.Server(), &proto.Message{
		Type: proto.TypeNegotiate, From: a.c.Name(), Target: peer,
		Nonce: n.nonce, Candidates: a.localCandidates(),
	})
}

// intercept is the client's UDP pre-dispatch hook.
func (a *Agent) intercept(from inet.Endpoint, m *proto.Message) bool {
	switch m.Type {
	case proto.TypeNegotiateDetails:
		a.handleDetails(m)
		return true
	case proto.TypePunch:
		if m.From == a.c.Name() {
			return true // our own probe looped back (shared private realms, §3.3)
		}
		if n := a.negs[m.Nonce]; n != nil && !n.done {
			a.answerCheck(n, from)
			return true
		}
		// Unclaimed: remember it, and let the client re-ack it if the
		// nonce is a live session's.
		if m.Nonce != 0 {
			a.early[a.earlyNext] = earlyCheck{from: from, nonce: m.Nonce}
			a.earlyNext = (a.earlyNext + 1) % earlyChecks
		}
	case proto.TypePunchAck:
		if n := a.negs[m.Nonce]; n != nil && !n.done {
			a.nominate(n, from, m)
			return true
		}
	case proto.TypeData:
		// The peer's first data datagram can overtake its check-ack;
		// a correctly-nonced payload from the negotiation's peer is at
		// least as strong evidence, so nominate on it — and return
		// false so the client delivers the payload to the session the
		// nomination just adopted.
		if n := a.negs[m.Nonce]; n != nil && !n.done && n.peer == m.From {
			a.nominate(n, from, m)
		}
	case proto.TypeRelayed:
		// The requester's deadline fires one server round trip before
		// ours, so the first datagram it relays can find our side still
		// checking. Relayed traffic from the negotiation's peer proves
		// the peer nominated the relay: nominate it here too — the
		// deadline, early — and return false so the client delivers the
		// payload to the session that just adopted.
		if n := a.inbound[m.From]; n != nil && a.c.LookupUDPSession(n.peer) == nil &&
			a.c.Config().RelayFallback {
			a.timeout(n)
		}
	case proto.TypeError:
		// S could not broker the negotiation (peer unknown/offline).
		// Fail matching requester-side negotiations; fall through so
		// the client's own attempts get the same treatment.
		for _, n := range a.negs {
			if n.peer == m.From && n.requester && !n.gotDetails && !n.done {
				a.finish(n)
				if n.established {
					continue // silent: the live session stays on its path
				}
				if n.cb.Failed != nil {
					n.cb.Failed(n.peer, punch.ErrPeerUnknown)
				}
			}
		}
	}
	return false
}

// handleDetails receives the peer's candidate list — as the requester
// (reply to our offer) or as the target (the forwarded offer; adopt
// the agent's Inbound callbacks, mirroring punch.Client.InboundUDP).
func (a *Agent) handleDetails(m *proto.Message) {
	n := a.negs[m.Nonce]
	if n == nil {
		if m.Requester {
			return // stale reply for a negotiation we no longer track
		}
		n = &negotiation{
			peer: m.From, nonce: m.Nonce, cb: a.Inbound,
			byEP: make(map[inet.Endpoint]*check),
		}
		a.negs[n.nonce] = n
		a.inbound[n.peer] = n
		n.deadline = a.tr().After(a.punchTimeout, func() { a.timeout(n) })
	}
	if n.gotDetails || n.done {
		return
	}
	n.gotDetails = true
	if s := a.c.LookupUDPSession(n.peer); s != nil && s.Nonce == n.nonce {
		// The peer is re-negotiating our live session (its nonce
		// proves it): this is a background upgrade, so nomination
		// must migrate the session, never replace it.
		n.established = true
	}
	if a.c.Config().RelayFirst && !n.established &&
		a.c.LookupUDPSession(n.peer) == nil {
		// Relay-first connect: the candidate exchange completing
		// proves both ends are registered, so the §2.2 relay floor is
		// usable now. Establish through it immediately and keep the
		// checks running; the first ack migrates the live session
		// onto the nominated direct path.
		n.established = true
		s := a.c.AdoptUDPSession(n.peer, inet.Endpoint{}, punch.MethodRelay, n.nonce,
			punch.UDPCallbacks{Data: n.cb.Data, Dead: n.cb.Dead})
		if n.cb.Established != nil {
			n.cb.Established(s, Candidate{Kind: KindRelay, Endpoint: a.c.RelayVia(n.peer)})
		}
	}
	cands := BuildChecks(a.c.PublicUDP(), m.Candidates, a.cfg)
	for i, cand := range cands {
		if n.byEP[cand.Endpoint] != nil {
			// Already discovered (and probing) via an inbound check
			// that beat the details here; don't start a second loop.
			continue
		}
		ch := &check{cand: cand}
		n.checks = append(n.checks, ch)
		n.byEP[cand.Endpoint] = ch
		// Paced first probes: check i starts i*checkPace after the
		// details arrive (RFC 8445 §6.1.4), so high-priority candidates
		// get a head start without serializing the whole schedule.
		d := time.Duration(i) * checkPace
		ch.timer = a.tr().After(d, func() { a.startCheck(n, ch) })
	}
	// Checks that beat these details here are answered now, as if
	// they had just arrived, instead of waiting out the requester's
	// retransmission.
	for i, e := range a.early {
		if e.nonce != 0 && e.nonce == n.nonce {
			a.early[i] = earlyCheck{}
			a.answerCheck(n, e.from)
		}
	}
}

// startCheck begins (or continues) one candidate's probe loop.
func (a *Agent) startCheck(n *negotiation, ch *check) {
	if n.done || a.c.Closed() {
		return
	}
	ch.started = true
	a.c.SendUDPMessage(ch.cand.Endpoint, &proto.Message{
		Type: proto.TypePunch, From: a.c.Name(), Nonce: n.nonce,
	})
	ch.timer = a.tr().After(punch.ProbeInterval, func() { a.startCheck(n, ch) })
}

// answerCheck answers a connectivity check for an active negotiation:
// ack the probe, and run the triggered check back at the observed
// source — discovering it as a peer-reflexive (or hairpin) candidate
// when nobody advertised it (§5.1's fresh symmetric mappings).
func (a *Agent) answerCheck(n *negotiation, from inet.Endpoint) {
	a.c.SendUDPMessage(from, &proto.Message{
		Type: proto.TypePunchAck, From: a.c.Name(), Nonce: n.nonce,
	})
	ch := n.byEP[from]
	if ch == nil {
		k := classifyDiscovery(a.c.PublicUDP(), from)
		ch = &check{cand: Candidate{Kind: k, Endpoint: from, Priority: k.Priority()}}
		n.checks = append(n.checks, ch)
		n.byEP[from] = ch
	}
	if !ch.started {
		// Triggered check: jump the pacing queue — the path provably
		// carries traffic in one direction already.
		if ch.timer != nil {
			ch.timer.Stop()
		}
		a.startCheck(n, ch)
	}
}

// nominate locks in the first candidate whose check elicited a valid
// ack (§3.2 step 3's "locks in whichever endpoint first elicits a
// valid response", generalized over the candidate set).
func (a *Agent) nominate(n *negotiation, from inet.Endpoint, m *proto.Message) {
	if m.From == a.c.Name() {
		return
	}
	chosen := Candidate{
		Kind:     classifyDiscovery(a.c.PublicUDP(), from),
		Endpoint: from,
	}
	if ch := n.byEP[from]; ch != nil {
		chosen = ch.cand
	}
	chosen.Priority = chosen.Kind.Priority()
	a.finish(n)

	via := punch.MethodPublic
	if chosen.Kind == KindPrivate {
		via = punch.MethodPrivate
	}
	if n.established {
		// Background nomination for a live session: migrate it in
		// place (drain-then-switch) instead of adopting a new one.
		a.c.MigrateUDPSession(n.peer, from, via, n.nonce)
		return
	}
	s := a.c.AdoptUDPSession(n.peer, from, via, n.nonce,
		punch.UDPCallbacks{Data: n.cb.Data, Dead: n.cb.Dead})
	if n.cb.Established != nil {
		n.cb.Established(s, chosen)
	}
}

// timeout fires at the negotiation deadline: nominate the relay
// candidate — the floor that always works while both clients can
// reach S (§2.2) — or report failure when relaying is ablated or the
// client has no relay fallback.
func (a *Agent) timeout(n *negotiation) {
	if n.done || a.c.Closed() {
		return
	}
	a.finish(n)
	if n.established {
		// The checks never completed, but the session has been live on
		// the relay all along; it simply stays there (periodic
		// re-punching keeps trying for a direct path).
		return
	}
	if a.c.Config().RelayFallback {
		s := a.c.AdoptUDPSession(n.peer, inet.Endpoint{}, punch.MethodRelay, n.nonce,
			punch.UDPCallbacks{Data: n.cb.Data, Dead: n.cb.Dead})
		if n.cb.Established != nil {
			n.cb.Established(s, Candidate{Kind: KindRelay, Endpoint: a.c.RelayVia(n.peer)})
		}
		return
	}
	if n.cb.Failed != nil {
		n.cb.Failed(n.peer, punch.ErrPunchTimeout)
	}
}

// repunch is installed as the client's OnRepunch hook: a background
// re-punch for a live session becomes a full re-negotiation under the
// session's existing nonce, so upgrades explore the same candidate
// set that established the session (including peer-reflexive
// discovery, §5.1).
func (a *Agent) repunch(peer string, nonce uint64) {
	if !a.c.UDPRegistered() || a.negs[nonce] != nil || a.byPeer[peer] != nil {
		return // not negotiable right now, or already negotiating
	}
	n := &negotiation{
		peer: peer, nonce: nonce, requester: true, established: true,
		byEP: make(map[inet.Endpoint]*check),
	}
	a.negs[n.nonce] = n
	a.byPeer[peer] = n
	n.deadline = a.tr().After(a.punchTimeout, func() { a.timeout(n) })
	a.c.SendUDPMessage(a.c.Server(), &proto.Message{
		Type: proto.TypeNegotiate, From: a.c.Name(), Target: peer,
		Nonce: n.nonce, Candidates: a.localCandidates(),
	})
}

// Abort cancels every in-flight negotiation we initiated with peer
// without firing callbacks — the release path for context-cancelled
// dials. Responder-side negotiations are untouched so a cancelled
// dial cannot kill the peer's crossing dial. It reports whether
// anything was cancelled.
func (a *Agent) Abort(peer string) bool {
	aborted := false
	for _, n := range a.negs {
		if n.peer == peer && n.requester && !n.done {
			a.finish(n)
			aborted = true
		}
	}
	return aborted
}

// PendingNegotiations counts in-flight negotiations — the accounting
// hook that cancellation tests recount against.
func (a *Agent) PendingNegotiations() int { return len(a.negs) }

// finish retires a negotiation: stop timers, release indexes.
func (a *Agent) finish(n *negotiation) {
	n.stop()
	delete(a.negs, n.nonce)
	if a.byPeer[n.peer] == n {
		delete(a.byPeer, n.peer)
	}
	if a.inbound[n.peer] == n {
		delete(a.inbound, n.peer)
	}
}
