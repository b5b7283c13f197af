// Package relayapi runs the §2.2 relay fallback as a standalone
// service: "relaying ... always works as long as both clients can
// reach S" — but it "consumes the server's processing power and
// network bandwidth", so real deployments run the relay tier on its
// own hosts, sized for payload traffic, and keep the brokering tier
// (natpunch/rendezvousapi) lightweight.
//
// A relay server speaks the same wire protocol as the rendezvous
// server but serves only three message types: registration (which
// opens and records the client's NAT mapping toward the relay),
// keep-alives (§3.6, which keep that mapping and the registration's
// TTL alive), and RelayTo forwarding. Clients select relay hosts with
// natpunch.WithRelayServers; each relayed session is pinned to one
// relay by a stable hash of the peer pair, so both ends meet at the
// same host.
//
// Like the rendezvous server, a relay runs over any transport: a
// simnet host's Transport for deterministic worlds, or realudp for
// production (cmd/rendezvous -relay-only).
package relayapi

import (
	"time"

	"natpunch/internal/rendezvous"
	"natpunch/transport"
)

// Stats counts relay activity. RelayedMessages/RelayedBytes are the
// §2.2 load; registrations and keep-alive refreshes are overhead.
type Stats = rendezvous.Stats

// ServeOption tunes Serve.
type ServeOption func(*rendezvous.Config)

// WithAdvertise sets the endpoint Endpoint() reports and operators
// publish to clients (wildcard-bound real transports otherwise report
// the unroutable bind address verbatim).
func WithAdvertise(ep transport.Endpoint) ServeOption {
	return func(c *rendezvous.Config) { c.Advertise = ep }
}

// WithTTL bounds a relay registration's life between §3.6 keep-alives
// (default rendezvousapi.DefaultTTL; negative disables expiry).
func WithTTL(d time.Duration) ServeOption {
	return func(c *rendezvous.Config) { c.TTL = d }
}

// Server is a running standalone relay.
type Server struct {
	tr transport.Transport
	s  *rendezvous.Server
}

// Serve starts a relay server on tr at port (0 uses the transport's
// configured or an ephemeral port).
func Serve(tr transport.Transport, port uint16, opts ...ServeOption) (*Server, error) {
	cfg := rendezvous.Config{Port: transport.Port(port), RelayOnly: true}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.RelayOnly = true
	var s *rendezvous.Server
	var err error
	tr.Invoke(func() { s, err = rendezvous.Serve(tr, cfg) })
	if err != nil {
		return nil, err
	}
	return &Server{tr: tr, s: s}, nil
}

// Endpoint returns the endpoint clients should list in
// WithRelayServers: the advertised endpoint when set, else the bound
// one.
func (s *Server) Endpoint() transport.Endpoint {
	var ep transport.Endpoint
	s.tr.Invoke(func() { ep = s.s.Endpoint() })
	return ep
}

// Registered reports whether name currently holds a live relay
// registration.
func (s *Server) Registered(name string) bool {
	var ok bool
	s.tr.Invoke(func() { ok = s.s.Registered(name) })
	return ok
}

// Stats returns a copy of the relay's counters.
func (s *Server) Stats() Stats {
	var st Stats
	s.tr.Invoke(func() { st = s.s.Stats() })
	return st
}

// Close releases the relay's socket.
func (s *Server) Close() {
	s.tr.Invoke(func() { s.s.Close() })
}
