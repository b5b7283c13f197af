package nat

import (
	"encoding/binary"
	"math"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/sim"
)

// Stats counts NAT activity for experiments and assertions.
type Stats struct {
	MappingsCreated    uint64
	TranslatedOut      uint64
	TranslatedIn       uint64
	DroppedUnsolicited uint64
	RSTsSent           uint64
	ICMPsSent          uint64
	Hairpins           uint64
	HairpinRefused     uint64
	Mangled            uint64
	Expired            uint64
	Rebinds            uint64
}

// NAT is a simulated NAPT (or Basic NAT) device with one inside and
// one outside interface. Its inside interface is installed as the
// inside segment's default gateway.
type NAT struct {
	name    string
	net     *sim.Network
	b       Behavior
	inside  *sim.Iface
	outside *sim.Iface

	udp *table
	tcp *table

	nextPort inet.Port

	// Basic NAT address pool (translate addresses only, §2.1). Empty
	// means NAPT.
	pool     []inet.Addr
	poolUsed map[inet.Addr]inet.Addr // private host addr -> public pool addr

	stats Stats
}

// New creates a NAT with the given behavior. Attach the interfaces
// with AttachInside/AttachOutside before running traffic.
func New(n *sim.Network, name string, b Behavior) *NAT {
	b = b.withDefaults()
	return &NAT{
		name:     name,
		net:      n,
		b:        b,
		udp:      newTable(),
		tcp:      newTable(),
		nextPort: b.PortBase,
		poolUsed: make(map[inet.Addr]inet.Addr),
	}
}

// Name implements sim.Device.
func (nat *NAT) Name() string { return nat.name }

// Stats returns a copy of the activity counters.
func (nat *NAT) Stats() Stats { return nat.stats }

// AttachInside attaches the private-side interface and installs it as
// the segment's default gateway.
func (nat *NAT) AttachInside(seg *sim.Segment, addr inet.Addr) *sim.Iface {
	ifc := seg.Attach(nat, addr)
	seg.SetGateway(ifc)
	nat.inside = ifc
	return ifc
}

// AttachOutside attaches the public-side interface. The first call
// defines the NAT's public (NAPT) address; later calls add Basic NAT
// pool addresses.
func (nat *NAT) AttachOutside(seg *sim.Segment, addr inet.Addr) *sim.Iface {
	ifc := seg.Attach(nat, addr)
	if nat.outside == nil {
		nat.outside = ifc
	}
	return ifc
}

// PublicAddr returns the NAT's public (NAPT) address.
func (nat *NAT) PublicAddr() inet.Addr {
	if nat.outside == nil {
		return inet.Unspecified
	}
	return nat.outside.Addr()
}

// MappingCount returns the number of live mappings (after purging
// expired state).
func (nat *NAT) MappingCount() int {
	nat.Sweep()
	return len(nat.udp.byKey) + len(nat.tcp.byKey)
}

// PublicEndpointFor reports the public endpoint currently mapped for
// (priv, remote), if any — the view a STUN-style probe would obtain.
func (nat *NAT) PublicEndpointFor(proto inet.Proto, priv, remote inet.Endpoint) (inet.Endpoint, bool) {
	t := nat.tableFor(proto)
	m := t.byKey[keyFor(nat.b.Mapping, proto, priv, remote)]
	if m == nil || !nat.purge(t, m) {
		return inet.Endpoint{}, false
	}
	return m.pub, true
}

// Rebind models the NAT losing its entire translation state at once —
// a consumer device power-cycling, or an aggressive purge under table
// pressure (the failure mode behind §3.6's re-punch advice). Every
// mapping and session drops: inbound traffic for the old public
// endpoints is refused from now on, and the next outbound packet from
// each inside host allocates a fresh mapping on a fresh public port
// (the allocator never reuses ports within a run), so peers holding
// the old endpoint must re-punch or fail back to the relay.
func (nat *NAT) Rebind() {
	for _, t := range []*table{nat.udp, nat.tcp} {
		for _, m := range t.byKey {
			t.remove(m)
		}
	}
	nat.stats.Rebinds++
}

// Sweep purges all expired sessions and mappings immediately. Expiry
// is otherwise evaluated lazily when packets touch a mapping.
func (nat *NAT) Sweep() {
	for _, t := range []*table{nat.udp, nat.tcp} {
		for _, m := range t.byKey {
			nat.purge(t, m)
		}
	}
}

func (nat *NAT) tableFor(proto inet.Proto) *table {
	if proto == inet.TCP {
		return nat.tcp
	}
	return nat.udp
}

// Receive implements sim.Device.
func (nat *NAT) Receive(ifc *sim.Iface, pkt *inet.Packet) {
	if nat.inside == nil || nat.outside == nil {
		return
	}
	if ifc == nat.inside {
		nat.handleOutbound(pkt)
	} else {
		nat.handleInbound(pkt)
	}
}

// --- outbound path (private -> public) ---

func (nat *NAT) handleOutbound(pkt *inet.Packet) {
	if pkt.Proto == inet.ICMP {
		nat.forwardICMPOut(pkt)
		return
	}
	if nat.isOwnPublicAddr(pkt.Dst.Addr) {
		nat.handleHairpin(pkt)
		return
	}
	m := nat.mapOutbound(pkt.Proto, pkt.Src, pkt.Dst)
	if m == nil {
		return // Basic NAT pool exhausted
	}
	s, created := m.sessionFor(pkt.Dst, true)
	s.lastOut = nat.now()
	nat.trackTCPOut(m, pkt, s)
	if created {
		nat.coverSession(m, s)
	}

	// Header-only rewrite: share the payload bytes unless this NAT
	// mangles payloads (in which case it needs a private copy).
	out := pkt.ShallowClone()
	out.Src = m.pub
	out.TTL--
	if nat.b.Mangle {
		out.Payload = append([]byte(nil), out.Payload...)
		nat.mangle(out, pkt.Src.Addr, m.pub.Addr)
	}
	nat.stats.TranslatedOut++
	nat.outside.Send(out)
}

// mapOutbound finds or creates the mapping for an outbound flow.
func (nat *NAT) mapOutbound(proto inet.Proto, priv, remote inet.Endpoint) *mapping {
	t := nat.tableFor(proto)
	key := keyFor(nat.b.Mapping, proto, priv, remote)
	if m := t.byKey[key]; m != nil {
		if nat.purge(t, m) {
			return m
		}
	}
	pub, ok := nat.allocPublic(proto, priv)
	if !ok {
		return nil
	}
	m := &mapping{
		key: key, priv: priv, pub: pub, proto: proto,
		sessions: make(map[inet.Endpoint]*session),
		created:  nat.now(),
	}
	t.insert(m)
	nat.stats.MappingsCreated++
	return m
}

// allocPublic picks the public endpoint for a new mapping.
func (nat *NAT) allocPublic(proto inet.Proto, priv inet.Endpoint) (inet.Endpoint, bool) {
	if len(nat.pool) > 0 {
		// Basic NAT: one public address per private host, ports
		// preserved.
		pub, ok := nat.poolUsed[priv.Addr]
		if !ok {
			if len(nat.poolUsed) >= len(nat.pool) {
				return inet.Endpoint{}, false
			}
			pub = nat.pool[len(nat.poolUsed)]
			nat.poolUsed[priv.Addr] = pub
		}
		return inet.Endpoint{Addr: pub, Port: priv.Port}, true
	}

	addr := nat.PublicAddr()
	t := nat.tableFor(proto)
	free := func(p inet.Port) bool {
		if p == 0 {
			return false
		}
		_, used := t.byPub[inet.Endpoint{Addr: addr, Port: p}]
		return !used
	}

	switch nat.b.PortAlloc {
	case PortPreserving:
		if free(priv.Port) {
			return inet.Endpoint{Addr: addr, Port: priv.Port}, true
		}
	case PortRandom:
		for i := 0; i < 64; i++ {
			p := inet.Port(49152 + nat.net.Sched.Rand().Intn(16384))
			if free(p) {
				return inet.Endpoint{Addr: addr, Port: p}, true
			}
		}
	}
	// Sequential (also the fallback for the other strategies).
	for i := 0; i < 65536; i++ {
		p := nat.nextPort
		nat.nextPort++
		if nat.nextPort == 0 {
			nat.nextPort = nat.b.PortBase
		}
		if free(p) {
			return inet.Endpoint{Addr: addr, Port: p}, true
		}
	}
	return inet.Endpoint{}, false
}

// --- inbound path (public -> private) ---

func (nat *NAT) handleInbound(pkt *inet.Packet) {
	if pkt.Proto == inet.ICMP {
		nat.forwardICMPIn(pkt)
		return
	}
	t := nat.tableFor(pkt.Proto)
	m := t.byPub[pkt.Dst]
	if m == nil || !nat.purge(t, m) {
		nat.refuse(pkt, false)
		return
	}
	if !m.allows(nat.b.Filtering, pkt.Src) {
		nat.refuse(pkt, false)
		return
	}
	s, created := m.sessionFor(pkt.Src, nat.b.Filtering != FilterAddressPortDependent)
	if s != nil {
		if s.lastOut == 0 {
			s.inbound = true
		}
		s.lastIn = nat.now()
		nat.trackTCPIn(m, pkt, s)
		if created {
			nat.coverSession(m, s)
		}
	}
	out := pkt.ShallowClone()
	out.Dst = m.priv
	out.TTL--
	nat.stats.TranslatedIn++
	nat.inside.Send(out)
}

// refuse handles an unsolicited or filtered packet. towardInside
// marks refusals of hairpin traffic, whose errors go back into the
// private network.
func (nat *NAT) refuse(pkt *inet.Packet, towardInside bool) {
	dir := nat.outside
	if towardInside {
		dir = nat.inside
	}
	if pkt.Proto == inet.TCP && pkt.Flags.Has(inet.FlagSYN) && !pkt.Flags.Has(inet.FlagACK) {
		switch nat.b.TCPRefusal {
		case RefuseRST:
			// §5.2: actively rejecting with RST interferes with hole
			// punching (the peer's connect fails fast and must retry).
			nat.stats.RSTsSent++
			dir.Send(&inet.Packet{
				Proto: inet.TCP, Src: pkt.Dst, Dst: pkt.Src, TTL: inet.DefaultTTL,
				Flags: inet.FlagRST | inet.FlagACK, Ack: pkt.Seq + 1,
			})
			return
		case RefuseICMP:
			nat.stats.ICMPsSent++
			dir.Send(&inet.Packet{
				Proto: inet.ICMP, ICMP: inet.ICMPAdminProhibited,
				Src: inet.Endpoint{Addr: nat.PublicAddr()}, Dst: pkt.Src,
				TTL: inet.DefaultTTL, Orig: pkt.Session(), OrigProto: inet.TCP,
			})
			return
		}
	}
	nat.stats.DroppedUnsolicited++
}

// --- hairpin path (§3.5) ---

func (nat *NAT) handleHairpin(pkt *inet.Packet) {
	enabled := nat.b.HairpinUDP
	if pkt.Proto == inet.TCP {
		enabled = nat.b.HairpinTCP
	}
	t := nat.tableFor(pkt.Proto)
	target := t.byPub[pkt.Dst]
	if !enabled || target == nil || !nat.purge(t, target) {
		nat.stats.HairpinRefused++
		nat.refuse(pkt, true)
		return
	}

	// The sender's own outbound session to the public endpoint also
	// creates a mapping (it is a normal outbound session that happens
	// to loop back).
	sender := nat.mapOutbound(pkt.Proto, pkt.Src, pkt.Dst)
	if sender == nil {
		return
	}
	ss, ssCreated := sender.sessionFor(pkt.Dst, true)
	ss.lastOut = nat.now()
	nat.trackTCPOut(sender, pkt, ss)
	if ssCreated {
		nat.coverSession(sender, ss)
	}

	if nat.b.HairpinFiltered && !target.allows(nat.b.Filtering, sender.pub) {
		// §6.3: a NAT may treat all traffic to its public ports as
		// untrusted regardless of origin, filtering hairpin flows that
		// a plain inbound filter would reject.
		nat.stats.HairpinRefused++
		nat.refuse(pkt, true)
		return
	}

	ts, tsCreated := target.sessionFor(sender.pub, nat.b.Filtering != FilterAddressPortDependent)
	if ts != nil {
		if ts.lastOut == 0 {
			ts.inbound = true
		}
		ts.lastIn = nat.now()
		nat.trackTCPIn(target, pkt, ts)
		if tsCreated {
			nat.coverSession(target, ts)
		}
	}

	// §3.5: "it then translates both the source and destination
	// addresses in the datagram and loops the datagram back onto the
	// private network".
	out := pkt.ShallowClone()
	out.Src = sender.pub
	out.Dst = target.priv
	out.TTL--
	nat.stats.Hairpins++
	nat.inside.Send(out)
}

// --- ICMP translation ---

// forwardICMPOut carries an ICMP error generated inside the private
// network out to the public side, rewriting the referenced session's
// private endpoint to its public mapping.
func (nat *NAT) forwardICMPOut(pkt *inet.Packet) {
	t := nat.tableFor(pkt.OrigProto)
	for _, m := range t.byKey {
		if m.priv == pkt.Orig.Remote {
			out := pkt.ShallowClone()
			out.Orig.Remote = m.pub
			out.Src = inet.Endpoint{Addr: nat.PublicAddr()}
			out.TTL--
			nat.outside.Send(out)
			return
		}
	}
	// No mapping: the error references an unknown session; drop.
}

// forwardICMPIn carries an ICMP error from the public side to the
// private host whose translated session triggered it.
func (nat *NAT) forwardICMPIn(pkt *inet.Packet) {
	t := nat.tableFor(pkt.OrigProto)
	m := t.byPub[pkt.Orig.Local]
	if m == nil {
		nat.stats.DroppedUnsolicited++
		return
	}
	out := pkt.ShallowClone()
	out.Orig.Local = m.priv
	out.Dst = inet.Endpoint{Addr: m.priv.Addr}
	out.TTL--
	nat.inside.Send(out)
}

// --- TCP session tracking ---

func (nat *NAT) trackTCPOut(m *mapping, pkt *inet.Packet, s *session) {
	if pkt.Proto != inet.TCP {
		return
	}
	if pkt.Flags.Has(inet.FlagSYN) {
		s.sawSynOut = true
	}
	nat.trackTCPCommon(m, pkt, s)
}

func (nat *NAT) trackTCPIn(m *mapping, pkt *inet.Packet, s *session) {
	if pkt.Proto != inet.TCP {
		return
	}
	if pkt.Flags.Has(inet.FlagSYN) {
		s.sawSynIn = true
	}
	nat.trackTCPCommon(m, pkt, s)
}

func (nat *NAT) trackTCPCommon(m *mapping, pkt *inet.Packet, s *session) {
	if pkt.Flags.Has(inet.FlagRST) || pkt.Flags.Has(inet.FlagFIN) {
		if s.tcp != tcpClosing {
			// Closing shortens the idle limit to the transitory
			// timeout, so the cached expiry bound may now be too
			// optimistic; force the next purge to recompute it.
			s.tcp = tcpClosing
			m.nextExpiry = 0
		}
		return
	}
	if s.tcp != tcpEstablished && s.sawSynOut && s.sawSynIn &&
		pkt.Flags.Has(inet.FlagACK) && !pkt.Flags.Has(inet.FlagSYN) {
		// Handshake completed under the NAT's gaze (§4: TCP's state
		// machine gives NATs a standard way to track session
		// lifetime).
		s.tcp = tcpEstablished
	}
}

// --- expiry ---

func (nat *NAT) now() time.Duration { return nat.net.Sched.Now() }

// purge drops expired sessions from m and removes m entirely when no
// sessions remain. It reports whether the mapping survived.
//
// The full session walk runs only once the mapping's cached expiry
// bound has passed: refreshes only ever push a session's expiry
// later, so while now <= nextExpiry no session can have expired and
// the per-packet cost is O(1) regardless of session count. (The one
// transition that shortens a limit — TCP moving to closing — resets
// the bound; see trackTCPCommon.)
func (nat *NAT) purge(t *table, m *mapping) bool {
	now := nat.now()
	if len(m.sessions) > 0 {
		if now <= m.nextExpiry {
			return true
		}
		next := time.Duration(math.MaxInt64)
		for _, s := range m.sessions {
			exp := nat.sessionExpiry(m.proto, s)
			if now > exp {
				m.dropSession(s)
			} else if exp < next {
				next = exp
			}
		}
		if len(m.sessions) > 0 {
			m.nextExpiry = next
			return true
		}
	}
	if now-m.created > 0 {
		t.remove(m)
		nat.stats.Expired++
		return false
	}
	return true
}

// coverSession folds a newly created (and freshly stamped) session
// into the mapping's cached expiry bound: set it for the mapping's
// first session, lower it if the new session expires sooner.
// Lowering never needs the full walk a recompute would, so a stream
// of new remotes on a busy mapping stays O(1) per packet.
func (nat *NAT) coverSession(m *mapping, s *session) {
	exp := nat.sessionExpiry(m.proto, s)
	if len(m.sessions) == 1 || exp < m.nextExpiry {
		m.nextExpiry = exp
	}
}

// sessionExpiry returns the virtual instant after which the session
// counts as expired: its last applicable refresh plus the idle limit.
func (nat *NAT) sessionExpiry(proto inet.Proto, s *session) time.Duration {
	last := s.lastOut
	if (nat.b.InboundRefresh || s.inbound) && s.lastIn > last {
		last = s.lastIn
	}
	var limit time.Duration
	if proto == inet.UDP {
		limit = nat.b.UDPTimeout
	} else if s.tcp == tcpEstablished {
		limit = nat.b.TCPEstablished
	} else {
		limit = nat.b.TCPTransitory
	}
	return last + limit
}

// isOwnPublicAddr reports whether addr is the NAT's public address or
// one of its Basic NAT pool addresses.
func (nat *NAT) isOwnPublicAddr(addr inet.Addr) bool {
	if addr == nat.PublicAddr() {
		return true
	}
	for _, a := range nat.pool {
		if a == addr {
			return true
		}
	}
	return false
}

// --- payload mangling (§3.1, §5.3) ---

// mangle blindly rewrites 4-byte payload fields equal to the private
// source address into the public address, mimicking NATs that scan
// payloads "for 4-byte fields that look like IP addresses, and
// translate them as they would the IP address fields in the IP
// header".
func (nat *NAT) mangle(pkt *inet.Packet, priv, pub inet.Addr) {
	if len(pkt.Payload) < 4 {
		return
	}
	var privBytes, pubBytes [4]byte
	binary.BigEndian.PutUint32(privBytes[:], uint32(priv))
	binary.BigEndian.PutUint32(pubBytes[:], uint32(pub))
	for i := 0; i+4 <= len(pkt.Payload); i++ {
		if pkt.Payload[i] == privBytes[0] &&
			pkt.Payload[i+1] == privBytes[1] &&
			pkt.Payload[i+2] == privBytes[2] &&
			pkt.Payload[i+3] == privBytes[3] {
			copy(pkt.Payload[i:i+4], pubBytes[:])
			nat.stats.Mangled++
			i += 3
		}
	}
}
