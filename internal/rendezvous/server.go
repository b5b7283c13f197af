// Package rendezvous implements the well-known server S of the paper
// (§3.1) as a composition of small services sharing one wire surface:
//
//   - a pluggable Registry (registry.go) stores client registrations
//     — §3.1's endpoint pairs — with §3.6 TTL eviction, sharded for
//     concurrent scaling by default;
//   - the forwarder (forwarder.go) implements §3.2 step 2's
//     connection-request forwarding plus reversal (§2.3) and
//     sequential-punch signalling (§4.5);
//   - the broker (broker.go) runs candidate negotiation for the
//     ICE-style engine (internal/ice);
//   - the relay (relay.go) is the §2.2 always-works fallback, also
//     servable on dedicated hosts as a standalone relay service
//     (Config.RelayOnly, package natpunch/relayapi);
//   - federation (federation.go) links multiple S instances over the
//     ordinary transport seam, replicating registrations and routing
//     deliveries through each client's home server, so a peer
//     registered on S1 can dial, negotiate with, and relay to a peer
//     registered on S2.
package rendezvous

import (
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/tcp"
	"natpunch/transport"
)

// Stats counts server activity, including the relay load that makes
// pure relaying unattractive (§2.2: "consumes the server's processing
// power and network bandwidth").
type Stats struct {
	RegistrationsUDP uint64
	RegistrationsTCP uint64
	ConnectRequests  uint64
	// NegotiateRequests counts candidate negotiations brokered for the
	// ICE-style engine (internal/ice).
	NegotiateRequests uint64
	RelayedMessages   uint64
	RelayedBytes      uint64
	ReversalRequests  uint64
	SeqSignals        uint64
	Errors            uint64
	// FedRecords counts replicated registrations received from
	// federation peers; FedForwards counts federated deliveries
	// executed on behalf of peers.
	FedRecords  uint64
	FedForwards uint64
}

// Add returns the field-wise sum of two stat snapshots, for
// aggregating multi-server deployments.
func (s Stats) Add(o Stats) Stats {
	s.RegistrationsUDP += o.RegistrationsUDP
	s.RegistrationsTCP += o.RegistrationsTCP
	s.ConnectRequests += o.ConnectRequests
	s.NegotiateRequests += o.NegotiateRequests
	s.RelayedMessages += o.RelayedMessages
	s.RelayedBytes += o.RelayedBytes
	s.ReversalRequests += o.ReversalRequests
	s.SeqSignals += o.SeqSignals
	s.Errors += o.Errors
	s.FedRecords += o.FedRecords
	s.FedForwards += o.FedForwards
	return s
}

// DefaultTTL is how long a registration lives without a §3.6
// keep-alive refreshing it. Generous against the engine's 15s default
// keep-alive pace, but finite: a client that dies without teardown
// stops being dialable instead of receiving forwards forever.
const DefaultTTL = 2 * time.Minute

// Config shapes one server. The zero value serves the full rendezvous
// surface with a fresh DefaultShards-way registry and DefaultTTL.
type Config struct {
	// Port is the UDP (and, over simulated hosts, TCP) service port;
	// 0 takes an ephemeral port.
	Port inet.Port
	// Obf is the endpoint obfuscation mode for outgoing messages.
	Obf proto.Obfuscator
	// Registry is the registration store; nil builds a private
	// NewShardedRegistry(DefaultShards). Supplying one allows sharing
	// a store between servers or plugging an external backend.
	Registry Registry
	// TTL bounds a registration's life between keep-alives. 0 takes
	// DefaultTTL; negative disables expiry.
	TTL time.Duration
	// Advertise, when non-zero, is the endpoint Endpoint() reports —
	// the operator-routable address of a wildcard-bound server.
	Advertise inet.Endpoint
	// RelayOnly restricts the served surface to registration,
	// keep-alives, and §2.2 relaying — the standalone relay service
	// deployable on its own hosts (package natpunch/relayapi).
	RelayOnly bool
	// Peers lists federation peers to Join at startup (adapters
	// consume this; rendezvous.Serve itself leaves joining to the
	// caller so it happens inside the right transport context).
	Peers []inet.Endpoint
}

// tcpClient is S's record of one client registered over the TCP
// surface (simulated hosts only; §4's procedures).
type tcpClient struct {
	name    string
	conn    *tcp.Conn
	public  inet.Endpoint
	private inet.Endpoint
}

// Server is the rendezvous server S.
type Server struct {
	tr  transport.Transport
	cfg Config
	// h is the simulated host when the transport provides one; over
	// UDP-only transports (real sockets) it is nil and the TCP
	// registration surface is absent.
	h    *host.Host
	port inet.Port
	obf  proto.Obfuscator

	udp      transport.UDPConn
	listener *host.TCPListener
	reg      Registry
	tcpc     map[string]*tcpClient

	// Federation link state (federation.go). fedPeers preserves join
	// order so replication fan-out is deterministic.
	fedPeers []inet.Endpoint
	fedSet   map[inet.Endpoint]bool

	// Zero-alloc hot path state. dec decodes every UDP datagram into
	// one reused Message, interning client names (safe to retain in
	// registry records) and leaving Data where it lies in the datagram.
	// scratchMsg is the reused outgoing-message skeleton; enc and
	// fedScratch are the encode buffers — separate, because a federated
	// delivery encodes the inner message (fedScratch) and then the
	// FedForward wrapper around it (enc). Scratch encoding is only
	// enabled when the transport conn declares transport.ScratchSender
	// (reuseEnc), and a conn that lends its send buffer (inPlace) is
	// encoded into directly instead of through enc; the simulated
	// transport retains sent payloads, so it gets fresh encodings.
	dec        proto.Decoder
	scratchMsg proto.Message
	enc        []byte
	fedScratch []byte
	reuseEnc   bool
	inPlace    transport.InPlaceSender

	stats Stats

	// Trace, if set, receives one line per handled message.
	Trace func(format string, args ...any)
}

// New starts a rendezvous server on simulated host h at port (UDP and
// TCP).
func New(h *host.Host, port inet.Port, obf proto.Obfuscator) (*Server, error) {
	return NewOver(h.Transport(), port, obf)
}

// NewOver starts a rendezvous server over an arbitrary transport at
// port with default registry and TTL.
func NewOver(tr transport.Transport, port inet.Port, obf proto.Obfuscator) (*Server, error) {
	return Serve(tr, Config{Port: port, Obf: obf})
}

// Serve starts a rendezvous server over tr with explicit
// configuration. UDP service — registration, endpoint exchange,
// candidate negotiation, relaying, federation — works on any
// transport; the TCP side is bound only when the transport carries
// the full simulated host stack.
func Serve(tr transport.Transport, cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		cfg.Registry = NewShardedRegistry(DefaultShards)
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	s := &Server{
		tr: tr, cfg: cfg, port: cfg.Port, obf: cfg.Obf,
		reg:    cfg.Registry,
		tcpc:   make(map[string]*tcpClient),
		fedSet: make(map[inet.Endpoint]bool),
	}
	if hp, ok := tr.(interface{ SimHost() *host.Host }); ok {
		s.h = hp.SimHost()
	}
	u, err := tr.BindUDP(s.port)
	if err != nil {
		return nil, err
	}
	s.udp = u
	s.port = u.Local().Port
	if ss, ok := u.(transport.ScratchSender); ok && ss.ScratchSendOK() {
		s.reuseEnc = true
	}
	s.inPlace, _ = u.(transport.InPlaceSender)
	u.OnRecv(s.handleUDP)
	if s.h != nil && !cfg.RelayOnly {
		l, err := s.h.TCPListen(s.port, false, s.handleAccept)
		if err != nil {
			u.Close()
			return nil, err
		}
		s.listener = l
	}
	return s, nil
}

// Endpoint returns the endpoint clients should dial: the configured
// advertised endpoint when set (wildcard-bound real sockets report
// 0.0.0.0 otherwise), else the bound endpoint.
func (s *Server) Endpoint() inet.Endpoint {
	if !s.cfg.Advertise.IsZero() {
		return s.cfg.Advertise
	}
	return s.udp.Local()
}

// BoundEndpoint returns the transport-reported bound endpoint,
// regardless of any advertised override.
func (s *Server) BoundEndpoint() inet.Endpoint { return s.udp.Local() }

// Close releases the server's sockets.
func (s *Server) Close() {
	s.udp.Close()
	if s.listener != nil {
		s.listener.Close()
	}
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Registry returns the server's registration store.
func (s *Server) Registry() Registry { return s.reg }

// Registered reports whether a client name is live (on either
// transport surface, homed anywhere in the federation).
func (s *Server) Registered(name string) bool {
	if _, ok := s.reg.Get(name, s.now()); ok {
		return true
	}
	_, ok := s.tcpc[name]
	return ok
}

func (s *Server) now() time.Duration { return s.tr.Now() }

// expiry computes the registry deadline for a registration refreshed
// now (§3.6 keep-alives push it forward).
func (s *Server) expiry() time.Duration {
	if s.cfg.TTL < 0 {
		return 0
	}
	return s.now() + s.cfg.TTL
}

func (s *Server) tracef(format string, args ...any) {
	if s.Trace != nil {
		s.Trace(format, args...)
	}
}

// --- UDP transport ---

func (s *Server) handleUDP(from inet.Endpoint, payload []byte) {
	m, err := s.dec.Decode(payload)
	if err != nil {
		return // stray traffic; §3.4 says endpoints must expect it
	}
	if s.Trace != nil { // guarded: the variadic call itself allocates
		s.tracef("S/udp <- %s from=%s(%s)", m.Type, m.From, from)
	}
	if s.cfg.RelayOnly {
		switch m.Type {
		case proto.TypeRegister:
			s.registerUDP(from, m)
		case proto.TypeKeepAlive:
			s.keepAliveUDP(from, m)
		case proto.TypeRelayTo:
			s.relay(m)
		}
		return // everything else is out of scope for a pure relay
	}
	switch m.Type {
	case proto.TypeRegister:
		s.registerUDP(from, m)

	case proto.TypeConnectRequest:
		s.stats.ConnectRequests++
		s.forwardDetails(from, m, false)

	case proto.TypeNegotiate:
		s.stats.NegotiateRequests++
		s.forwardCandidates(m, from)

	case proto.TypeRelayTo:
		s.relay(m)

	case proto.TypeReverseRequest:
		s.reverse(from, m)

	case proto.TypeSeqRequest, proto.TypeSeqGo:
		s.seqSignal(m)

	case proto.TypeKeepAlive:
		s.keepAliveUDP(from, m)

	case proto.TypeFedHello:
		s.handleFedHello(from)

	case proto.TypeFedRecord:
		s.handleFedRecord(from, m)

	case proto.TypeFedForward:
		s.handleFedForward(from, m)
	}
}

// registerUDP implements §3.1: record the observed public endpoint
// (from the packet header) and the self-reported private one, start
// the TTL, echo both back, and replicate to federation peers.
func (s *Server) registerUDP(from inet.Endpoint, m *proto.Message) {
	rec := Record{
		Name:      m.From,
		Public:    from,      // observed from the packet header (§3.1)
		Private:   m.Private, // reported by the client itself
		ExpiresAt: s.expiry(),
	}
	s.reg.Put(rec)
	s.stats.RegistrationsUDP++
	out := &s.scratchMsg
	*out = proto.Message{
		Type: proto.TypeRegisterOK, Target: m.From,
		Public:  from,
		Private: rec.Private,
	}
	s.sendUDP(from, out)
	s.replicate(rec)
}

// keepAliveUDP implements §3.6 on the registration session: refresh
// the record's TTL and public endpoint (the NAT may have expired the
// old mapping), ack so clients can tell a live server from a dead one
// (the facade's failover signal), and replicate the refresh.
func (s *Server) keepAliveUDP(from inet.Endpoint, m *proto.Message) {
	if !s.reg.Touch(m.From, from, s.expiry(), s.now()) {
		return // unknown or expired; the client's refresh cycle re-registers
	}
	out := &s.scratchMsg
	*out = proto.Message{
		Type: proto.TypeRegisterOK, Target: m.From, Public: from,
	}
	s.sendUDP(from, out)
	if rec, ok := s.reg.Get(m.From, s.now()); ok && rec.Local() {
		s.replicate(rec)
	}
}

// sendUDP encodes and transmits one message: into the buffer the socket
// sends it from where the socket lends that (transport.InPlaceSender;
// the encoding is then the only copy a relayed payload takes through
// the server), else into the reused scratch where the socket releases
// payloads before SendTo returns (reuseEnc) — the forward/relay hot
// path is allocation-free either way — else (simulated transports,
// which queue the payload slice) as a fresh encoding.
func (s *Server) sendUDP(to inet.Endpoint, m *proto.Message) {
	switch {
	case s.inPlace != nil:
		s.inPlace.Commit(to, proto.AppendMessage(s.inPlace.Reserve(), m, s.obf))
	case s.reuseEnc:
		s.enc = proto.AppendMessage(s.enc[:0], m, s.obf)
		s.udp.SendTo(to, s.enc)
	default:
		s.udp.SendTo(to, proto.Encode(m, s.obf))
	}
}

// deliver routes a message to a registered client: directly when the
// client is homed here, or wrapped in a federation forward to its
// home server — the only party whose datagrams traverse the client's
// NAT filter state (§3.1).
func (s *Server) deliver(rec Record, m *proto.Message) {
	if rec.Local() {
		s.sendUDP(rec.Public, m)
		return
	}
	if s.reuseEnc {
		// Inner message into its own scratch: fedForward will reuse
		// both scratchMsg (the wrapper skeleton) and enc (the wrapper
		// encoding), so m — often scratchMsg itself — must be fully
		// encoded before the call.
		s.fedScratch = proto.AppendMessage(s.fedScratch[:0], m, s.obf)
		s.fedForward(rec.Home, rec.Name, s.fedScratch)
		return
	}
	s.fedForward(rec.Home, rec.Name, proto.Encode(m, s.obf))
}

// --- TCP transport ---

func (s *Server) handleAccept(conn *tcp.Conn) {
	// The client is identified once its Register frame arrives.
	var dec proto.StreamDecoder
	var owner *tcpClient
	conn.OnData(func(cn *tcp.Conn, p []byte) {
		msgs, err := dec.Feed(p)
		if err != nil {
			cn.Abort()
			return
		}
		for _, m := range msgs {
			owner = s.handleTCPMessage(cn, owner, m)
		}
	})
	conn.OnClosed(func(cn *tcp.Conn) {
		if owner != nil && owner.conn == cn {
			delete(s.tcpc, owner.name)
		}
	})
}

func (s *Server) handleTCPMessage(conn *tcp.Conn, owner *tcpClient, m *proto.Message) *tcpClient {
	s.tracef("S/tcp <- %s from=%s(%s)", m.Type, m.From, conn.Remote())
	switch m.Type {
	case proto.TypeRegister:
		c := &tcpClient{
			name:    m.From,
			conn:    conn,
			public:  conn.Remote(), // observed (§3.1)
			private: m.Private,
		}
		s.tcpc[m.From] = c
		s.stats.RegistrationsTCP++
		s.sendTCP(c, &proto.Message{
			Type: proto.TypeRegisterOK, Target: m.From,
			Public:  conn.Remote(),
			Private: c.private,
		})
		return c

	case proto.TypeConnectRequest:
		s.stats.ConnectRequests++
		s.forwardDetails(conn.Remote(), m, true)

	case proto.TypeRelayTo:
		s.relay(m)

	case proto.TypeReverseRequest:
		s.reverse(conn.Remote(), m)

	case proto.TypeSeqRequest, proto.TypeSeqGo:
		s.seqSignal(m)

	case proto.TypeKeepAlive:
		// Registration-connection keep-alive (§3.6): the traffic
		// itself refreshes NAT state on the path; nothing to record.
	}
	return owner
}

func (s *Server) sendTCP(c *tcpClient, m *proto.Message) {
	if c == nil || c.conn == nil {
		return
	}
	c.conn.Write(proto.AppendFrame(nil, m, s.obf))
}

// fail reports a brokering failure back to the requester over the
// surface the request arrived on.
func (s *Server) fail(from inet.Endpoint, m *proto.Message, viaTCP bool) {
	s.stats.Errors++
	e := &s.scratchMsg
	*e = proto.Message{Type: proto.TypeError, Target: m.From, From: m.Target}
	if viaTCP {
		s.sendTCP(s.tcpc[m.From], e)
		return
	}
	// Reply to the observed source: the request just traversed the
	// requester's NAT, so this path is always open — even for clients
	// whose own registration has already expired.
	s.sendUDP(from, e)
}

// KeepAliveInterval is how often idle clients should ping S to keep
// their registration's NAT mapping alive (§3.6).
const KeepAliveInterval = 15 * time.Second
