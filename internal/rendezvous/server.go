// Package rendezvous implements the well-known server S of the paper
// (§3.1) as a composition of small services sharing one wire surface:
//
//   - the registry (registry.go), a map the server owns, stores client
//     registrations — §3.1's endpoint pairs — with §3.6 TTL eviction;
//   - the forwarder (forwarder.go) implements §3.2 step 2's
//     connection-request forwarding plus reversal (§2.3) and
//     sequential-punch signalling (§4.5);
//   - the broker (broker.go) runs candidate negotiation for the
//     punch client's Connect;
//   - the relay (relay.go) is the §2.2 always-works fallback, also
//     servable on dedicated hosts as a standalone relay service
//     (Config.RelayOnly, rendezvousapi.WithRelayOnly);
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
	// NegotiateRequests counts candidate negotiations brokered for
	// the punch client's Connect.
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
// surface with DefaultTTL.
type Config struct {
	// Port is the UDP (and, over simulated hosts, TCP) service port;
	// 0 takes an ephemeral port.
	Port inet.Port
	// Obf is the endpoint obfuscation mode for outgoing messages.
	Obf proto.Obfuscator
	// TTL bounds a registration's life between keep-alives. 0 takes
	// DefaultTTL; negative disables expiry.
	TTL time.Duration
	// Advertise, when non-zero, is the endpoint Endpoint() reports —
	// the operator-routable address of a wildcard-bound server.
	Advertise inet.Endpoint
	// RelayOnly restricts the served surface to registration,
	// keep-alives, and §2.2 relaying — the standalone relay service
	// deployable on its own hosts (rendezvousapi.WithRelayOnly).
	RelayOnly bool
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
	reg      registry
	tcpc     map[string]*tcpClient

	// Federation link state (federation.go): the configured peers,
	// the only sources Fed* messages are accepted from. fedPeers
	// preserves join order so replication fan-out is deterministic.
	fedPeers []inet.Endpoint
	fedSet   map[inet.Endpoint]bool

	// Zero-alloc hot path state. dec decodes every UDP datagram into
	// one reused Message, interning client names (safe to retain in
	// registry records) and leaving Data where it lies in the datagram.
	// scratchMsg is the reused outgoing-message skeleton. Every UDP
	// datagram is built in the buffer sender lends
	// (transport.SendBuffer); fedScratch is apart from it, because a
	// federated delivery encodes the inner message (or copies the
	// relayed bytes) into fedScratch and then the FedForward wrapper
	// around it into the lent buffer.
	dec        proto.Decoder
	scratchMsg proto.Message
	fedScratch []byte
	sender     transport.InPlaceSender

	stats Stats
}

// NewOver starts a rendezvous server over an arbitrary transport at
// port with the default TTL.
func NewOver(tr transport.Transport, port inet.Port, obf proto.Obfuscator) (*Server, error) {
	return Serve(tr, Config{Port: port, Obf: obf})
}

// Serve starts a rendezvous server over tr with explicit
// configuration. UDP service — registration, endpoint exchange,
// candidate negotiation, relaying, federation — works on any
// transport; the TCP side is bound only when the transport carries
// the full simulated host stack.
func Serve(tr transport.Transport, cfg Config) (*Server, error) {
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	s := &Server{
		tr: tr, cfg: cfg, port: cfg.Port, obf: cfg.Obf,
		reg:    registry{recs: make(map[string]Record)},
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
	s.sender = transport.SendBuffer(u)
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

// Close releases the server's sockets.
func (s *Server) Close() {
	s.udp.Close()
	if s.listener != nil {
		s.listener.Close()
	}
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Registered reports whether a client name is live (on either
// transport surface, homed anywhere in the federation).
func (s *Server) Registered(name string) bool {
	if _, ok := s.reg.get(name, s.now()); ok {
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

// --- UDP transport ---

func (s *Server) handleUDP(from inet.Endpoint, payload []byte) {
	m, err := s.dec.Decode(payload)
	if err != nil {
		return // stray traffic; §3.4 says endpoints must expect it
	}
	if s.cfg.RelayOnly {
		switch m.Type {
		case proto.TypeRegister:
			s.registerUDP(from, m)
		case proto.TypeKeepAlive:
			s.keepAliveUDP(from, m)
		case proto.TypeRelayTo:
			s.relay(m, payload[:s.dec.Len()])
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
		s.forwardDetails(from, m, false)

	case proto.TypeRelayTo:
		s.relay(m, payload[:s.dec.Len()])

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
	s.reg.put(rec, s.now())
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
	rec, ok := s.reg.touch(m.From, from, s.expiry(), s.now())
	if !ok {
		return // unknown or expired; the client's refresh cycle re-registers
	}
	out := &s.scratchMsg
	*out = proto.Message{
		Type: proto.TypeRegisterOK, Target: m.From, Public: from,
	}
	s.sendUDP(from, out)
	s.replicate(rec)
}

// sendUDP encodes and transmits one message, into the buffer sender
// lends. The forwarder's hot path is allocation-free on every
// transport.
func (s *Server) sendUDP(to inet.Endpoint, m *proto.Message) {
	s.sender.Commit(to, proto.AppendMessage(s.sender.Reserve(), m, s.obf))
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
	// Inner message into its own scratch: fedForward will reuse both
	// scratchMsg (the wrapper skeleton) and the lent send buffer (the
	// wrapper encoding), so m — often scratchMsg itself — must be fully
	// encoded before the call.
	s.fedScratch = proto.AppendMessage(s.fedScratch[:0], m, s.obf)
	s.fedForward(rec.Home, rec.Name, s.fedScratch)
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
		// No datagram to forward: encode the frame's message once.
		s.relay(m, proto.Encode(m, s.obf))

	case proto.TypeReverseRequest:
		s.reverse(m)

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
