package punch

import (
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/transport"
)

// Candidate is package ice's candidate, named here so that a caller
// that only dials need not import the candidate model.
type Candidate = ice.Candidate

// UDPCallbacks are the application-visible events of a UDP session.
type UDPCallbacks struct {
	// Established fires once the session is usable, with the
	// candidate it was locked in on: public, private or relay from
	// ConnectUDP, any kind from a negotiation.
	Established func(s *UDPSession, chosen Candidate)
	// Failed fires when punching fails and no fallback is available.
	Failed func(peer string, err error)
	// Data fires per received datagram.
	Data func(*UDPSession, []byte)
	// Dead fires when the session stops receiving traffic (NAT state
	// likely expired, §3.6); the application may re-punch on demand.
	Dead func(*UDPSession)
	// PathChanged fires when the live session migrates between paths
	// (relay->direct upgrade, direct->relay failback; Config
	// PathUpgrade). The session keeps its identity, nonce, sequence
	// space, and stats across the switch.
	PathChanged func(s *UDPSession, old, new Method)
}

// UDPSession is an established peer-to-peer UDP session.
type UDPSession struct {
	c    *Client
	Peer string
	// Remote is the locked-in endpoint (§3.2 step 3: "locks in
	// whichever endpoint first elicits a valid response").
	Remote inet.Endpoint
	// Via classifies the path (private / public / relay).
	Via Method
	// Nonce authenticates the session's traffic (§3.4).
	Nonce uint64
	// relayVia routes MethodRelay traffic: a fixed standalone relay
	// server, or — when relayDynamic — the client's *current*
	// rendezvous server, re-resolved per send so relayed sessions
	// survive server failover.
	relayVia     inet.Endpoint
	relayDynamic bool

	cb        UDPCallbacks
	seq       uint32
	dataAt    int           // where the payload begins in the datagram BeginSend began
	lastRecvT time.Duration // transport-clock time of last inbound traffic
	keepTimer transport.Timer
	closed    bool

	// Path-migration state (Config.PathUpgrade; migrate.go).
	// lastDirectRecvT times inbound traffic that arrived on the
	// direct path specifically — relay receipts must not mask a dead
	// direct path. recvSeq is the highest delivered sequence number;
	// during a drain window (draining), new-path datagrams with
	// seq > drainTo wait in held until the old path's tail arrives or
	// drainTimer fires.
	lastDirectRecvT time.Duration
	lastRepunch     time.Duration
	recvSeq         uint32
	draining        bool
	drainTo         uint32
	drainTimer      transport.Timer
	held            []heldDatagram

	// Stats.
	SentDatagrams, RecvDatagrams uint64
	// PathChanges counts mid-session migrations (either direction).
	PathChanges uint64
}

// udpAttempt tracks one in-progress punching attempt (§3.2).
type udpAttempt struct {
	c         *Client
	peer      string
	nonce     uint64
	requester bool
	cb        UDPCallbacks
	// Candidate endpoints from S: the peer's public and private
	// endpoints (§3.2 step 2).
	pub, priv  inet.Endpoint
	gotDetails bool
	probeTimer transport.Timer
	deadline   transport.Timer
	done       bool
}

// via classifies the endpoint that answered the attempt. For an
// un-NATed peer public and private coincide (§3.1); that is reported
// as public.
func (a *udpAttempt) via(from inet.Endpoint) Method {
	if from == a.priv && a.priv != a.pub {
		return MethodPrivate
	}
	return MethodPublic
}

func (a *udpAttempt) stop() {
	a.done = true
	if a.probeTimer != nil {
		a.probeTimer.Stop()
	}
	if a.deadline != nil {
		a.deadline.Stop()
	}
}

// retireUDPAttempt stops a concluded attempt and releases its indexes.
func (c *Client) retireUDPAttempt(a *udpAttempt) {
	a.stop()
	delete(c.udpAttempts, a.nonce)
	if c.udpInbound[a.peer] == a {
		delete(c.udpInbound, a.peer)
	}
}

// newUDPSession enters a session with peer in the client's table,
// closing the one it replaces, and starts its §3.6 maintenance. Every
// lock-in builds its session here: a punch-ack, early data, the relay
// floor, and a negotiation's nomination. The caller fires Established.
func (c *Client) newUDPSession(peer string, remote inet.Endpoint, via Method, nonce uint64, cb UDPCallbacks) *UDPSession {
	if prev := c.udpSessions[peer]; prev != nil {
		prev.Close()
	}
	s := &UDPSession{c: c, Peer: peer, Remote: remote, Via: via, Nonce: nonce, cb: cb}
	if via == MethodRelay {
		s.relayVia, s.relayDynamic = c.relayRoute(peer)
	}
	now := c.now()
	s.lastRecvT, s.lastDirectRecvT, s.lastRepunch = now, now, now
	c.udpSessions[peer] = s
	s.scheduleKeepAlive()
	return s
}

// lockIn concludes attempt a on the endpoint that first elicited a
// valid response (§3.2 step 3): a punch ack or early session data.
func (c *Client) lockIn(a *udpAttempt, from inet.Endpoint) *UDPSession {
	c.retireUDPAttempt(a)
	via, kind := a.via(from), ice.KindPublic
	if via == MethodPrivate {
		kind = ice.KindPrivate
	}
	s := c.newUDPSession(a.peer, from, via, a.nonce, a.cb)
	if a.cb.Established != nil {
		a.cb.Established(s, ice.Candidate{Kind: kind, Endpoint: from})
	}
	return s
}

// bindUDP binds the client's UDP socket to localPort without yet
// registering with S.
func (c *Client) bindUDP(localPort inet.Port) error {
	if c.udp != nil {
		return nil
	}
	s, err := c.tr.BindUDP(localPort)
	if err != nil {
		return err
	}
	c.udp = s
	c.udpPrivate = s.Local()
	c.sender = transport.SendBuffer(s)
	s.OnRecv(c.handleUDPPacket)
	return nil
}

// RegisterUDP binds the client's UDP socket to localPort and
// registers with S — and with every configured standalone relay
// server — learning the public endpoint. done is invoked with nil on
// success or an error once the whole pool's retries are exhausted.
func (c *Client) RegisterUDP(localPort inet.Port, done func(error)) error {
	if err := c.bindUDP(localPort); err != nil {
		return err
	}
	c.udpRegDone = done
	c.udpRegTries = 0
	c.poolTried = 1
	if len(c.cfg.RelayServers) > 0 && c.relayReg == nil {
		c.relayReg = make(map[inet.Endpoint]bool, len(c.cfg.RelayServers))
		for _, ep := range c.cfg.RelayServers {
			c.relayReg[ep] = false
			c.sendUDP(ep, &proto.Message{
				Type: proto.TypeRegister, From: c.name, Private: c.udpPrivate,
			})
		}
	}
	c.sendRegisterUDP()
	return nil
}

func (c *Client) sendRegisterUDP() {
	if c.udpRegistered || c.closed {
		return
	}
	c.udpRegTries++
	// With a pool, spend only two 1s tries per member before walking
	// on: a mostly dead pool must reach its survivor inside Open's
	// register timeout (2xN seconds for N members, vs 5s each).
	maxTries := 5
	if len(c.pool) > 1 {
		maxTries = 2
	}
	if c.udpRegTries > maxTries {
		// This pool member never answered; walk the preference order
		// before giving up entirely.
		if c.poolTried < len(c.pool) {
			c.poolTried++
			c.advanceServer()
			c.udpRegTries = 1
		} else {
			if c.udpRegDone != nil {
				c.udpRegDone(ErrRegisterFail)
			}
			return
		}
	}
	c.sendToServer(&proto.Message{
		Type: proto.TypeRegister, From: c.name, Private: c.udpPrivate,
	})
	c.udpRegRetry = c.after(time.Second, c.sendRegisterUDP)
}

// advanceServer re-homes the client at the next server in its
// preference order (wrapping around — a single-member pool retries
// the same server, which covers server restarts). Every re-homing —
// registration-time pool walking or runtime failover — counts in
// Failovers.
func (c *Client) advanceServer() {
	c.poolIdx = (c.poolIdx + 1) % len(c.pool)
	c.server = c.pool[c.poolIdx]
	c.serverConfirmed = false
	c.lastServerSeen = c.now() // grace period before the next verdict
	c.Failovers++
}

// sendToServer transmits a message to S over UDP.
func (c *Client) sendToServer(m *proto.Message) { c.sendUDP(c.server, m) }

// sendUDP encodes and transmits one message.
func (c *Client) sendUDP(to inet.Endpoint, m *proto.Message) error {
	return c.sender.Commit(to, proto.AppendMessage(c.sender.Reserve(), m, c.obf))
}

// UDPRegistered reports whether UDP registration completed.
func (c *Client) UDPRegistered() bool { return c.udpRegistered }

// PublicUDP returns the client's public UDP endpoint as observed by S
// (§3.1).
func (c *Client) PublicUDP() inet.Endpoint { return c.udpPublic }

// PrivateUDP returns the client's own view of its UDP endpoint.
func (c *Client) PrivateUDP() inet.Endpoint { return c.udpPrivate }

// ConnectUDP starts hole punching toward peer (§3.2 step 1: "A asks S
// for help establishing a UDP session with B"). The outcome arrives
// via cb. The socket must be bound; normally the caller has
// registered first (RegisterUDP). A merely-bound client may still
// try, but unless S already knows this client the request fails with
// ErrPeerUnknown (S's error reply blames the pair, not the missing
// registration).
func (c *Client) ConnectUDP(peer string, cb UDPCallbacks) {
	if c.udp == nil {
		if cb.Failed != nil {
			cb.Failed(peer, ErrNotRegistered)
		}
		return
	}
	if _, busy := c.udpSessions[peer]; busy {
		if cb.Failed != nil {
			cb.Failed(peer, ErrBusy)
		}
		return
	}
	n := c.nonce()
	a := &udpAttempt{c: c, peer: peer, nonce: n, requester: true, cb: cb}
	c.udpAttempts[n] = a
	a.deadline = c.after(c.cfg.PunchTimeout, func() { c.udpAttemptTimeout(a) })
	c.sendToServer(&proto.Message{
		Type: proto.TypeConnectRequest, From: c.name, Target: peer, Nonce: n,
	})
}

// handleUDPPacket is the single entry point for everything on the
// client's one UDP socket: rendezvous replies, punch probes, session
// data, and stray traffic (§3.4 requires robust filtering of the
// latter).
func (c *Client) handleUDPPacket(from inet.Endpoint, payload []byte) {
	m, err := c.dec.Decode(payload)
	if err != nil {
		return // stray datagram (wrong host scenarios of §3.4)
	}
	if from == c.server {
		// Any traffic from the current rendezvous server proves it
		// alive; the keep-alive clock uses this for failover detection.
		c.lastServerSeen = c.now()
	}
	if c.testDispatch != nil {
		c.testDispatch(from, m)
		return
	}
	c.dispatchUDP(from, m)
}

// dispatchUDP hands a decoded message to its handler. Where a type
// serves both negotiations and plain attempts, the handler gives a
// negotiation the first claim on it.
func (c *Client) dispatchUDP(from inet.Endpoint, m *proto.Message) {
	switch m.Type {
	case proto.TypeRegisterOK:
		c.handleRegisterOK(from, m)
	case proto.TypeConnectDetails:
		c.handleConnectDetails(m)
	case proto.TypeNegotiateDetails:
		c.handleNegotiateDetails(m)
	case proto.TypePunch:
		c.handlePunch(from, m)
	case proto.TypePunchAck:
		c.handlePunchAck(from, m)
	case proto.TypeData:
		c.handleSessionData(from, m)
	case proto.TypeKeepAlive:
		c.handleSessionKeepAlive(from, m)
	case proto.TypeRelayed:
		c.handleRelayed(m)
	case proto.TypeMigrate:
		c.handleMigrate(from, m)
	case proto.TypeError:
		c.handleServerError(m)
	}
}

func (c *Client) handleRegisterOK(from inet.Endpoint, m *proto.Message) {
	if _, tracked := c.relayReg[from]; tracked {
		c.relayReg[from] = true
		if from != c.server {
			return
		}
		// A relay host doubling as the home rendezvous server: fall
		// through so the ack also counts for the server registration.
	}
	if from != c.server {
		return // stale ack from a server we already failed away from
	}
	c.serverConfirmed = true
	if c.udpRegistered {
		// Keep-alive ack or re-registration: S's observation stays
		// authoritative for our public endpoint (§3.1) — the NAT may
		// have expired the old mapping and allocated a fresh one.
		c.udpPublic = m.Public
		return
	}
	c.udpRegistered = true
	c.udpPublic = m.Public
	if c.udpRegRetry != nil {
		c.udpRegRetry.Stop()
	}
	c.scheduleServerKeepAlive()
	if c.udpRegDone != nil {
		c.udpRegDone(nil)
	}
}

// scheduleServerKeepAlive keeps the registration's NAT mapping alive
// (§3.6). The same clock drives server-pool failover: a server that
// has answered nothing — not even keep-alive acks — for
// serverFailoverAfter is abandoned for the next pool member.
func (c *Client) scheduleServerKeepAlive() {
	c.udpKeepAlive = c.after(c.cfg.KeepAliveInterval, func() {
		if c.closed {
			return
		}
		switch {
		case len(c.pool) > 0 && c.now()-c.lastServerSeen > c.cfg.serverFailoverAfter():
			c.advanceServer()
			c.sendToServer(&proto.Message{
				Type: proto.TypeRegister, From: c.name, Private: c.udpPrivate,
			})
		case !c.serverConfirmed && len(c.pool) > 0:
			// The last (re-)registration was lost; keep registering
			// until the server acks.
			c.sendToServer(&proto.Message{
				Type: proto.TypeRegister, From: c.name, Private: c.udpPrivate,
			})
		default:
			c.sendToServer(&proto.Message{Type: proto.TypeKeepAlive, From: c.name})
		}
		// Standalone relay servers get the same §3.6 maintenance, so
		// their registrations and our NAT mappings toward them stay
		// alive for the moment a relay fallback needs them.
		for _, ep := range c.cfg.RelayServers {
			m := &proto.Message{Type: proto.TypeKeepAlive, From: c.name}
			if !c.relayReg[ep] {
				m = &proto.Message{Type: proto.TypeRegister, From: c.name, Private: c.udpPrivate}
			}
			c.sendUDP(ep, m)
		}
		c.scheduleServerKeepAlive()
	})
}

// handleConnectDetails receives the endpoint exchange of §3.2 step 2
// — as the requester (reply to ConnectRequest) or as the target (the
// forwarded connection request). Both sides behave identically from
// here: start punching (§3.2 step 3).
func (c *Client) handleConnectDetails(m *proto.Message) {
	a := c.udpAttempts[m.Nonce]
	if a == nil {
		// We are the target side: adopt the inbound-session callbacks.
		a = &udpAttempt{c: c, peer: m.From, nonce: m.Nonce, cb: c.InboundUDP}
		c.udpAttempts[m.Nonce] = a
		c.udpInbound[a.peer] = a
		a.deadline = c.after(c.cfg.PunchTimeout, func() { c.udpAttemptTimeout(a) })
	}
	if a.gotDetails || a.done {
		return
	}
	a.gotDetails = true
	a.pub, a.priv = m.Public, m.Private
	c.probe(a)
}

// probe sends punch datagrams to both candidate endpoints and
// reschedules itself; "the order and timing of these messages are not
// critical as long as they are asynchronous" (§3.2).
func (c *Client) probe(a *udpAttempt) {
	if a.done || c.closed {
		return
	}
	msg := &proto.Message{Type: proto.TypePunch, From: c.name, Nonce: a.nonce}
	c.sendUDP(a.pub, msg)
	if a.priv != a.pub && !a.priv.IsZero() {
		c.sendUDP(a.priv, msg)
	}
	a.probeTimer = c.after(ProbeInterval, func() { c.probe(a) })
}

// handlePunch answers an authenticated probe (§3.2 step 3). Probes
// carrying unknown nonces are stray traffic from the "wrong host"
// scenarios of §3.4 and are silently ignored — as are our own probes
// looping back, which happens when the peer's private address
// coincides with ours (both sides of the session share the nonce, so
// the name is the only self-detection signal).
func (c *Client) handlePunch(from inet.Endpoint, m *proto.Message) {
	if m.From == c.name {
		return
	}
	if n := c.negs[m.Nonce]; n != nil && !n.done {
		c.answerCheck(n, from)
		return
	}
	if m.Nonce != 0 {
		// No negotiation claims it yet: remember it, in case S's
		// details naming this nonce are still on their way.
		c.early[c.earlyNext] = earlyCheck{from: from, nonce: m.Nonce}
		c.earlyNext = (c.earlyNext + 1) % earlyChecks
	}
	if a := c.udpAttempts[m.Nonce]; a != nil && !a.done {
		c.sendUDP(from, &proto.Message{
			Type: proto.TypePunchAck, From: c.name, Nonce: m.Nonce,
		})
		// Triggered probe at the observed source: when the peer is
		// behind a symmetric NAT, its probes arrive from a mapping we
		// were never told about, and only a probe aimed at *that*
		// endpoint can elicit the ack that locks our side in.
		c.sendUDP(from, &proto.Message{
			Type: proto.TypePunch, From: c.name, Nonce: m.Nonce,
		})
		return
	}
	// Re-ack probes for sessions already locked in, so a peer whose
	// ack was lost can still converge.
	//natlint:ignore maporder every match sends the same ack and ends the loop
	for _, s := range c.udpSessions {
		if s.Nonce == m.Nonce && !s.closed {
			c.sendUDP(from, &proto.Message{
				Type: proto.TypePunchAck, From: c.name, Nonce: m.Nonce,
			})
			return
		}
	}
}

// handlePunchAck locks in the first endpoint that elicited a valid
// response (§3.2 step 3).
func (c *Client) handlePunchAck(from inet.Endpoint, m *proto.Message) {
	if m.From == c.name {
		return
	}
	if n := c.negs[m.Nonce]; n != nil && !n.done {
		c.nominate(n, from)
		return
	}
	if a := c.udpAttempts[m.Nonce]; a != nil && !a.done {
		c.lockIn(a, from)
	}
}

func (c *Client) udpAttemptTimeout(a *udpAttempt) {
	if a.done {
		return
	}
	c.retireUDPAttempt(a)
	if c.cfg.RelayFallback {
		// §2.2: relaying always works as long as both clients can
		// reach S (or a configured standalone relay server). Relay
		// sessions get the same §3.6 maintenance as punched ones: the
		// timer sends keep-alives across the relay (empty Seq-0
		// RelayTo) and fires Dead on idleness, which is what tells the
		// application its peer is gone.
		s := c.newUDPSession(a.peer, inet.Endpoint{}, MethodRelay, a.nonce, a.cb)
		if a.cb.Established != nil {
			a.cb.Established(s, ice.Candidate{Kind: ice.KindRelay, Endpoint: s.relayVia})
		}
		return
	}
	if a.cb.Failed != nil {
		a.cb.Failed(a.peer, ErrPunchTimeout)
	}
}

// handleServerError: S could not broker a request (peer unknown or
// offline), and reports it against the requester. Every attempt we
// requested toward that peer fails: negotiations, then plain UDP
// attempts, then TCP attempts, each in nonce order.
func (c *Client) handleServerError(m *proto.Message) {
	for n := range inNonceOrder(c.negs) {
		if n.peer == m.From && n.requester && !n.gotDetails && !n.done {
			c.finishNegotiation(n)
			if n.established {
				continue // silent: the live session stays on its path
			}
			if n.cb.Failed != nil {
				n.cb.Failed(n.peer, ErrPeerUnknown)
			}
		}
	}
	for a := range inNonceOrder(c.udpAttempts) {
		if a.peer == m.From && a.requester && !a.gotDetails {
			c.retireUDPAttempt(a)
			if a.cb.Failed != nil {
				a.cb.Failed(a.peer, ErrPeerUnknown)
			}
		}
	}
	c.tcpServerError(m)
}

// --- established session traffic ---

func (c *Client) handleSessionData(from inet.Endpoint, m *proto.Message) {
	if n := c.negs[m.Nonce]; n != nil && !n.done && n.peer == m.From && m.From != c.name {
		// The peer's first data datagram can overtake its check-ack;
		// a correctly-nonced payload from the negotiation's peer is at
		// least as strong evidence, so nominate on it and deliver the
		// payload to the session the nomination adopted.
		c.nominate(n, from)
	}
	s := c.udpSessions[m.From]
	if s == nil {
		// With both sides punching, the peer's first data datagram can
		// overtake the punch-ack that would lock in our side (UDP
		// preserves no ordering across the crossing probes). A
		// correctly-nonced payload from the expected peer is at least
		// as strong evidence as an ack, so lock the session in with it
		// instead of dropping the data.
		a := c.udpAttempts[m.Nonce]
		if a == nil || a.done || a.peer != m.From || m.From == c.name {
			return // unauthenticated (§3.4)
		}
		s = c.lockIn(a, from)
	}
	if s.closed || s.Nonce != m.Nonce {
		return // unauthenticated (§3.4)
	}
	s.touchDirect()
	if c.cfg.PathUpgrade && s.Via != MethodRelay && from != s.Remote && m.Seq > s.recvSeq {
		// The peer's NAT rebound mid-session: its traffic now arrives
		// from a fresh mapping. The nonce authenticates it (§3.4), so
		// follow the peer to its new endpoint — the QUIC-style
		// connection-migration move. Only a datagram newer than any
		// delivered moves the session (RFC 9000 §9.3): one replayed, or
		// delayed across the rebind from the old mapping, never does.
		s.Remote = from
	}
	s.receive(m.Seq, m.Data)
}

func (c *Client) handleSessionKeepAlive(from inet.Endpoint, m *proto.Message) {
	if s := c.udpSessions[m.From]; s != nil && s.Nonce == m.Nonce {
		s.touchDirect()
	}
}

func (c *Client) handleRelayed(m *proto.Message) {
	s := c.udpSessions[m.From]
	if s == nil && c.cfg.RelayFallback {
		// The dialer's punch deadline fires one server round trip
		// before ours, so the first datagram it relays can find our
		// side still probing. Relayed traffic from the peer of an
		// inbound negotiation or attempt proves the peer nominated the
		// relay: take the relay floor now, the deadline early, instead
		// of dropping what may be the only datagram it sends.
		if n := c.negInbound[m.From]; n != nil {
			c.negotiationTimeout(n)
		}
		if a := c.udpInbound[m.From]; a != nil && c.udpSessions[m.From] == nil {
			c.udpAttemptTimeout(a)
		}
		s = c.udpSessions[m.From]
	}
	if s == nil || (s.Via != MethodRelay && !c.cfg.PathUpgrade) {
		// Relayed data can also arrive for TCP relay sessions.
		c.tcpHandleRelayed(m)
		return
	}
	// With PathUpgrade, relayed traffic is accepted even while our
	// side still rides the direct path: the peer may have failed back
	// before we noticed the direct path die, and its data must not be
	// dropped in the gap. Note touch, not touchDirect — relay receipts
	// keep the session alive without masking direct-path death.
	s.touch()
	if m.Seq == 0 && len(m.Data) == 0 {
		return // §3.6 keep-alive across the relay; not application data
	}
	s.receive(m.Seq, m.Data)
}

// OnData replaces the session's data callback (convenient when the
// session object is first seen in the Established callback).
func (s *UDPSession) OnData(fn func(*UDPSession, []byte)) { s.cb.Data = fn }

// OnDead replaces the session's dead-session callback.
func (s *UDPSession) OnDead(fn func(*UDPSession)) { s.cb.Dead = fn }

// OnPathChange replaces the session's path-migration callback.
func (s *UDPSession) OnPathChange(fn func(s *UDPSession, old, new Method)) { s.cb.PathChanged = fn }

// Send transmits a datagram on the session (directly, or via S for
// relay sessions).
func (s *UDPSession) Send(data []byte) error {
	return s.EndSend(append(s.BeginSend(), data...))
}

// BeginSend and EndSend are Send in two halves, for a sender that
// builds its payload where it will be sent from (the stream engine
// packing frames): BeginSend returns a buffer that already holds the
// session datagram's envelope, the caller appends the payload, and
// EndSend sends the result on the session's live path. Every BeginSend
// is followed by its EndSend before anything else is sent on the
// client, and the buffer — the socket's own send buffer where it lends
// that (transport.SendBuffer) — is not kept past it.
func (s *UDPSession) BeginSend() []byte {
	if s.closed {
		return nil
	}
	s.seq++
	s.SentDatagrams++
	m := proto.Message{Type: proto.TypeData, From: s.c.name, Nonce: s.Nonce, Seq: s.seq}
	if s.Via == MethodRelay {
		m.Type, m.Target, m.Nonce = proto.TypeRelayTo, s.Peer, 0
	}
	buf := proto.BeginData(s.c.sender.Reserve(), &m, s.c.obf)
	s.dataAt = len(buf)
	return buf
}

// EndSend sends the datagram BeginSend began; see there.
func (s *UDPSession) EndSend(p []byte) error {
	if s.closed {
		return ErrNotRegistered
	}
	to := s.Remote
	if s.Via == MethodRelay {
		to = s.relayTarget()
	}
	return s.c.sender.Commit(to, proto.EndData(p, s.dataAt))
}

// Close tears the session down locally.
func (s *UDPSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.keepTimer != nil {
		s.keepTimer.Stop()
	}
	if s.drainTimer != nil {
		s.drainTimer.Stop()
		s.drainTimer = nil
	}
	s.held = nil
	if s.c.udpSessions[s.Peer] == s {
		delete(s.c.udpSessions, s.Peer)
	}
}

func (s *UDPSession) touch() { s.lastRecvT = s.c.now() }

// relayTarget resolves where this relay session's traffic goes right
// now: the fixed standalone relay server it was nominated onto, or
// the client's current rendezvous server (re-resolved per send, so
// relayed sessions ride through server failover).
func (s *UDPSession) relayTarget() inet.Endpoint {
	if s.relayDynamic || s.relayVia.IsZero() {
		return s.c.server
	}
	return s.relayVia
}

// scheduleKeepAlive sends periodic keep-alives so the NATs' per-
// session timers do not expire (§3.6), and watches for session death.
func (s *UDPSession) scheduleKeepAlive() {
	s.keepTimer = s.c.after(s.c.cfg.KeepAliveInterval, func() {
		if s.closed || s.c.closed {
			return
		}
		now := s.c.now()
		// With PathUpgrade, a direct session whose path goes dark
		// fails back to the relay instead of dying: §3.6 idle
		// detection picks the *path* verdict, and only the relay
		// floor going silent too is terminal.
		upgradable := s.c.cfg.PathUpgrade && s.Via != MethodRelay
		if now-s.lastRecvT > s.c.cfg.DeadAfter && !upgradable {
			// §3.6: detect that the session no longer works; the
			// application re-runs hole punching on demand.
			s.Close()
			if s.cb.Dead != nil {
				s.cb.Dead(s)
			}
			return
		}
		if upgradable && now-s.lastDirectRecvT > s.c.cfg.DeadAfter {
			s.failback()
		}
		if s.Via == MethodRelay {
			// §3.6 applies to relayed sessions too: an empty RelayTo
			// (Seq 0) refreshes both ends' NAT state and idle clocks
			// without surfacing as application data.
			s.c.sendUDP(s.relayTarget(), &proto.Message{
				Type: proto.TypeRelayTo, From: s.c.name, Target: s.Peer,
			})
			if s.c.cfg.PathUpgrade && now-s.lastRepunch >= s.c.cfg.RepunchEvery {
				// Periodically try to win a direct path (back): a
				// temporary block may have lifted, or the NAT may
				// have rebound onto workable mappings.
				s.lastRepunch = now
				s.c.repunch(s)
			}
		} else {
			s.c.sendUDP(s.Remote, &proto.Message{
				Type: proto.TypeKeepAlive, From: s.c.name, Nonce: s.Nonce,
			})
		}
		s.scheduleKeepAlive()
	})
}
