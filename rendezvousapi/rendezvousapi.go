// Package rendezvousapi runs the well-known rendezvous server S of
// the paper (§3.1-3.2) over any natpunch transport: registration with
// observed-public-endpoint reporting, connection-request forwarding
// with both endpoint pairs, candidate-negotiation brokering (how every
// natpunch Dialer dials), relaying (§2.2), reversal/sequential-punch
// signalling — and federation, which links multiple S instances into
// one logical service (see Join and WithPeers).
//
// One Serve call covers both worlds: pass a simnet host's Transport
// to anchor a simulated deployment, or a realudp Transport to run the
// production server on a real socket (cmd/rendezvous does exactly
// that). Over a simulated host the server additionally listens on
// TCP for the §4 procedures; UDP-only transports serve the UDP
// surface alone.
//
// Registrations live in a pluggable sharded registry with §3.6 TTL
// eviction: a client that dies without teardown stops being dialable
// once its keep-alives stop, instead of receiving forwards forever.
// For the standalone §2.2 relay tier, see package natpunch/relayapi.
package rendezvousapi

import (
	"time"

	"natpunch/internal/rendezvous"
	"natpunch/transport"
)

// Stats counts server activity, including the relay load that makes
// pure relaying unattractive (§2.2).
type Stats = rendezvous.Stats

// DefaultTTL is the registration time-to-live applied when WithTTL is
// not given: silent clients age out after this long without a §3.6
// keep-alive.
const DefaultTTL = rendezvous.DefaultTTL

// ServeOption tunes Serve.
type ServeOption func(*rendezvous.Config)

// WithAdvertise sets the endpoint Endpoint() reports and operators
// publish to clients. Wildcard-bound real transports ("0.0.0.0:7000")
// otherwise report the unroutable bind address verbatim.
func WithAdvertise(ep transport.Endpoint) ServeOption {
	return func(c *rendezvous.Config) { c.Advertise = ep }
}

// WithTTL bounds a registration's life between §3.6 keep-alives
// (default DefaultTTL; negative disables expiry).
func WithTTL(d time.Duration) ServeOption {
	return func(c *rendezvous.Config) { c.TTL = d }
}

// WithRegistryShards sizes the sharded registration store (default
// rendezvous.DefaultShards). More shards raise concurrent
// registration/lookup throughput; shard count never affects which
// server owns a name (ownership uses rendezvous hashing over the
// server set, not the shard table).
func WithRegistryShards(n int) ServeOption {
	return func(c *rendezvous.Config) { c.Registry = rendezvous.NewShardedRegistry(n) }
}

// WithPeers federates the new server with the given peers at startup
// (it joins each; links become bidirectional via the hello exchange).
func WithPeers(eps ...transport.Endpoint) ServeOption {
	return func(c *rendezvous.Config) { c.Peers = append(c.Peers, eps...) }
}

// WithObfuscation one's-complements endpoint bytes in server replies
// (§3.1/§5.3).
func WithObfuscation() ServeOption {
	return func(c *rendezvous.Config) { c.Obf = 1 }
}

// Server is a running rendezvous server.
type Server struct {
	tr transport.Transport
	s  *rendezvous.Server
}

// Serve starts a rendezvous server on tr at port (0 uses the
// transport's configured or an ephemeral port).
func Serve(tr transport.Transport, port uint16, opts ...ServeOption) (*Server, error) {
	cfg := rendezvous.Config{Port: transport.Port(port)}
	for _, o := range opts {
		o(&cfg)
	}
	peers := cfg.Peers
	cfg.Peers = nil
	var s *rendezvous.Server
	var err error
	tr.Invoke(func() {
		s, err = rendezvous.Serve(tr, cfg)
		if err != nil {
			return
		}
		for _, p := range peers {
			s.Join(p)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Server{tr: tr, s: s}, nil
}

// Endpoint returns the endpoint clients should dial: the advertised
// endpoint when WithAdvertise was given, else the bound one. Over a
// transport bound to a specific address (every simnet host, or
// realudp on "127.0.0.1:0") the bound endpoint is directly dialable;
// wildcard-bound realudp transports must advertise.
func (s *Server) Endpoint() transport.Endpoint {
	var ep transport.Endpoint
	s.tr.Invoke(func() { ep = s.s.Endpoint() })
	return ep
}

// Join federates this server with a peer server: registrations
// replicate both ways and clients homed on either side can dial,
// negotiate with, and relay to each other.
func (s *Server) Join(peer transport.Endpoint) {
	s.tr.Invoke(func() { s.s.Join(peer) })
}

// Peers returns the current federation peer set.
func (s *Server) Peers() []transport.Endpoint {
	var eps []transport.Endpoint
	s.tr.Invoke(func() { eps = s.s.Peers() })
	return eps
}

// Registered reports whether name is live in this server's registry
// (homed here or replicated from a federation peer).
func (s *Server) Registered(name string) bool {
	var ok bool
	s.tr.Invoke(func() { ok = s.s.Registered(name) })
	return ok
}

// Stats returns a copy of the server's counters.
func (s *Server) Stats() Stats {
	var st Stats
	s.tr.Invoke(func() { st = s.s.Stats() })
	return st
}

// Close releases the server's sockets.
func (s *Server) Close() {
	s.tr.Invoke(func() { s.s.Close() })
}
