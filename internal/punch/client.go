// Package punch implements the paper's contribution: hole punching
// for UDP (§3) and TCP (§4) with a rendezvous server, plus the
// companion techniques — relaying (§2.2), connection reversal (§2.3),
// and the sequential TCP variant (§4.5).
//
// A Client owns one UDP socket (enough for S and any number of peers,
// §4.2) and one TCP local port shared — via SO_REUSEADDR semantics —
// by the registration connection to S, a listener, and all outgoing
// connection attempts (§4.1, Figure 7).
//
// The package is deliberately lock-free and single-threaded: all
// state changes happen inside the owning transport's serialized
// context (the simulation event loop, or the real-socket transport's
// dispatch loop — see natpunch/transport's concurrency contract), so
// the same engine runs unchanged over simulated and real networks.
package punch

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/transport"
)

// Errors surfaced through session callbacks.
var (
	ErrPunchTimeout  = errors.New("punch: hole punching timed out")
	ErrPeerUnknown   = errors.New("punch: peer not registered with rendezvous server")
	ErrNotRegistered = errors.New("punch: client not registered")
	ErrBusy          = errors.New("punch: attempt to this peer already in progress")
	ErrRegisterFail  = errors.New("punch: registration with rendezvous server failed")
	ErrAborted       = errors.New("punch: attempt aborted")
	// ErrTCPUnsupported is returned by the TCP surface when the
	// client's transport does not provide a full host stack (real-UDP
	// transports carry only the UDP procedures).
	ErrTCPUnsupported = errors.New("punch: transport does not support TCP hole punching")
)

// Method classifies how a session was ultimately established. The
// application cannot tell punched-through-NAT from hairpinned or
// genuinely public paths (§3.5 notes apps need no topology knowledge),
// so both are MethodPublic.
type Method uint8

// Session establishment methods.
const (
	MethodNone Method = iota
	// MethodPrivate: the peer's private endpoint answered first —
	// peers behind a common NAT (§3.3) or on one LAN.
	MethodPrivate
	// MethodPublic: the peer's public endpoint answered first — the
	// canonical punched path (§3.4), a hairpinned path (§3.5), or a
	// peer that was never behind a NAT.
	MethodPublic
	// MethodRelay: fell back to relaying through S (§2.2).
	MethodRelay
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodPrivate:
		return "private"
	case MethodPublic:
		return "public"
	case MethodRelay:
		return "relay"
	default:
		return "none"
	}
}

// Config tunes the punching procedures. Zero values take defaults.
type Config struct {
	// PunchInterval is the UDP probe retransmission interval.
	PunchInterval time.Duration // default 100ms
	// PunchTimeout bounds the whole punching attempt (both
	// protocols); §4.2 step 4's "application-defined maximum timeout
	// period".
	PunchTimeout time.Duration // default 10s
	// ConnectRetryInterval is the delay before re-trying a failed TCP
	// connect ("e.g., one second", §4.2 step 4).
	ConnectRetryInterval time.Duration // default 1s
	// AuthTimeout bounds how long an unauthenticated TCP stream may
	// stay open before being discarded (§4.2 step 5).
	AuthTimeout time.Duration // default 3s
	// KeepAliveInterval paces session and registration keep-alives
	// (§3.6).
	KeepAliveInterval time.Duration // default 15s
	// DeadAfter declares a UDP session dead when nothing has been
	// received for this long, triggering the Dead callback so the
	// application can re-punch on demand (§3.6).
	DeadAfter time.Duration // default 60s
	// Obfuscate one's-complements addresses inside message bodies
	// (§3.1) to defeat mangler NATs (§5.3).
	Obfuscate bool
	// RelayFallback enables falling back to relaying through S when
	// punching fails (§2.2: "a useful fall-back strategy if maximum
	// robustness is desired").
	RelayFallback bool
	// RelayServers lists standalone §2.2 relay services (package
	// natpunch/relayapi). When non-empty, relay-fallback sessions
	// route through one of these (chosen by a stable hash of the peer
	// pair, so both ends agree) instead of loading the rendezvous
	// server; the client registers and keep-alives with each so its
	// NAT keeps a mapping open toward them.
	RelayServers []inet.Endpoint
	// ServerFailoverAfter is how long the rendezvous server may stay
	// silent — no keep-alive acks, no replies of any kind — before a
	// client with a server pool re-homes to the next server in its
	// preference order. Default 3x KeepAliveInterval (under DeadAfter,
	// so relayed sessions can re-route before idle death).
	ServerFailoverAfter time.Duration
	// DisableRegistrationKeepAlive turns off the periodic keep-alive
	// to S (useful for tests that want the event queue to drain).
	// Server-pool failover detection rides the keep-alive clock, so
	// it is disabled too.
	DisableRegistrationKeepAlive bool
	// RelayFirst makes a candidate negotiation (internal/ice)
	// establish its session through the §2.2 relay the moment the
	// candidate exchange completes — roughly one rendezvous round-trip
	// after the dial — while the checks continue in the background; a
	// nomination migrates the live session onto the direct path with
	// no datagram loss or reordering (drain-then-switch, migrate.go).
	// This is the relay-first pattern the paper's production
	// descendants (e.g. IPFS's DCUtR) converged on. ConnectUDP, the
	// paper's plain §3.2 attempt, ignores it. Implies PathUpgrade.
	RelayFirst bool
	// PathUpgrade enables mid-session path migration: relay->direct
	// upgrade when a background negotiation nominates a direct path,
	// direct->relay failback — instead of terminal session death —
	// when §3.6 idle detection declares the direct path dead, and
	// periodic background re-punching (OnRepunch) while a session
	// rides the relay.
	PathUpgrade bool
	// DrainTimeout bounds how long a migrating session's receiver
	// holds new-path datagrams while the old path's in-flight tail
	// drains (the tail may have been lost on real networks).
	DrainTimeout time.Duration // default 1s
	// RepunchEvery paces the background re-punch attempts of an
	// upgradable session riding the relay.
	RepunchEvery time.Duration // default 30s
}

func (c Config) withDefaults() Config {
	if c.PunchInterval == 0 {
		c.PunchInterval = 100 * time.Millisecond
	}
	if c.PunchTimeout == 0 {
		c.PunchTimeout = 10 * time.Second
	}
	if c.ConnectRetryInterval == 0 {
		c.ConnectRetryInterval = time.Second
	}
	if c.AuthTimeout == 0 {
		c.AuthTimeout = 3 * time.Second
	}
	if c.KeepAliveInterval == 0 {
		c.KeepAliveInterval = 15 * time.Second
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 60 * time.Second
	}
	if c.ServerFailoverAfter == 0 {
		// Below DeadAfter, so relay sessions riding the home server can
		// re-route to the new home before §3.6 declares them dead —
		// clamped when long keep-alive intervals would push 3x past it.
		c.ServerFailoverAfter = 3 * c.KeepAliveInterval
		if c.ServerFailoverAfter >= c.DeadAfter {
			c.ServerFailoverAfter = c.DeadAfter * 3 / 4
		}
	}
	if c.RelayFirst {
		c.PathUpgrade = true
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = time.Second
	}
	if c.RepunchEvery == 0 {
		c.RepunchEvery = 30 * time.Second
	}
	if len(c.RelayServers) > 1 {
		// Canonical order, so the pair-hash index lands both peers on
		// the same relay host no matter what order each listed the set
		// in. Copied: the caller's slice is not ours to reorder.
		sorted := append([]inet.Endpoint(nil), c.RelayServers...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		c.RelayServers = sorted
	}
	return c
}

// Client is a hole-punching endpoint application.
type Client struct {
	tr transport.Transport
	// h is the simulated host when the transport provides one (the
	// SimHost capability); nil over real-socket transports, where the
	// TCP punching surface is unavailable.
	h      *host.Host
	name   string
	server inet.Endpoint
	cfg    Config
	obf    proto.Obfuscator

	// UDP state.
	udp           transport.UDPConn
	udpPublic     inet.Endpoint
	udpPrivate    inet.Endpoint
	udpRegistered bool
	udpRegDone    func(error)
	udpRegRetry   transport.Timer
	udpRegTries   int
	udpKeepAlive  transport.Timer

	// Allocation-free datagram path, enabled (reuse) when the socket
	// declares transport.ScratchSender: every inbound datagram decodes
	// into dec's one reused Message — its Data the datagram's own bytes,
	// valid until the handler returns, so whatever outlives it copies —
	// and every send encodes into enc, or, on a socket that lends its
	// send buffer (inPlace, transport.InPlaceSender), straight into
	// that. The simulated transport retains sent payloads, and sessions
	// over it hand received ones to applications that keep them, so it
	// gets fresh ones both ways.
	reuse   bool
	inPlace transport.InPlaceSender
	dec     proto.Decoder
	enc     []byte

	// Server pool state: pool is the preference-ordered rendezvous
	// server list (pool[poolIdx] == server), lastServerSeen timestamps
	// the last traffic from the current server, and serverConfirmed
	// records whether the current server has acked a registration
	// since the last failover.
	pool            []inet.Endpoint
	poolIdx         int
	poolTried       int
	lastServerSeen  time.Duration
	serverConfirmed bool
	// Failovers counts server switches; OnServerSwitch, if set, fires
	// on each (old, new) re-homing.
	Failovers      int
	OnServerSwitch func(old, new inet.Endpoint)

	// relayReg tracks which standalone relay servers have acked our
	// registration (we keep re-registering until they do).
	relayReg map[inet.Endpoint]bool

	udpAttempts map[uint64]*udpAttempt
	// udpInbound indexes the pending peer-initiated attempts by peer:
	// relayed traffic names its sender but carries no nonce.
	udpInbound  map[string]*udpAttempt
	udpSessions map[string]*UDPSession

	// InboundUDP supplies callbacks for sessions initiated by peers
	// (the forwarded connection request of §3.2 step 2 arrives without
	// any local Connect call).
	InboundUDP UDPCallbacks

	// OnRepunch, if set, runs when a live session riding the relay
	// should try for a direct path (migrate.go). The
	// candidate-negotiation engine (internal/ice) installs it and
	// re-negotiates under the session's nonce, so upgrades use the
	// machinery that established the session. Without it sessions
	// still fail back, but never re-punch.
	OnRepunch func(peer string, nonce uint64)

	// udpIntercept, if set, sees every decoded UDP message before the
	// client's own dispatch; returning true consumes the message. The
	// candidate-negotiation engine (internal/ice) claims its
	// negotiation and connectivity-check traffic this way.
	udpIntercept func(from inet.Endpoint, m *proto.Message) bool

	// TCP state (tcp.go).
	tcpState

	// Trace, if set, receives one line per notable protocol event.
	Trace func(format string, args ...any)

	closed bool
}

// NewClient creates a punching client for simulated host h,
// identified to the rendezvous server at server by name.
func NewClient(h *host.Host, name string, server inet.Endpoint, cfg Config) *Client {
	return NewClientOver(h.Transport(), name, server, cfg)
}

// NewClientOver creates a punching client over an arbitrary
// transport. The full engine — UDP punching, keep-alives, idle
// death, relay fallback, and (via internal/ice) candidate
// negotiation — is available on any transport; the TCP procedures
// additionally require the transport's SimHost capability.
func NewClientOver(tr transport.Transport, name string, server inet.Endpoint, cfg Config) *Client {
	c := &Client{
		tr:          tr,
		name:        name,
		server:      server,
		cfg:         cfg.withDefaults(),
		udpAttempts: make(map[uint64]*udpAttempt),
		udpInbound:  make(map[string]*udpAttempt),
		udpSessions: make(map[string]*UDPSession),
	}
	if hp, ok := tr.(interface{ SimHost() *host.Host }); ok {
		c.h = hp.SimHost()
	}
	if c.cfg.Obfuscate {
		c.obf = proto.ObfuscatedEndpoints
	}
	c.tcpInit()
	return c
}

// Name returns the client's rendezvous identity.
func (c *Client) Name() string { return c.name }

// Host returns the underlying simulated host, or nil when the client
// runs over a transport without one.
func (c *Client) Host() *host.Host { return c.h }

// Transport returns the transport the client runs over.
func (c *Client) Transport() transport.Transport { return c.tr }

// after schedules fn on the client's transport.
func (c *Client) after(d time.Duration, fn func()) transport.Timer { return c.tr.After(d, fn) }

// now returns the transport clock.
func (c *Client) now() time.Duration { return c.tr.Now() }

// rand returns the transport's randomness source.
func (c *Client) rand() *rand.Rand { return c.tr.Rand() }

func (c *Client) tracef(format string, args ...any) {
	if c.Trace != nil {
		c.Trace("%s: %s", c.name, fmt.Sprintf(format, args...))
	}
}

// Close tears down sockets, sessions, and timers.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, s := range c.udpSessions {
		s.Close()
	}
	for _, a := range c.udpAttempts {
		a.stop()
	}
	if c.udpKeepAlive != nil {
		c.udpKeepAlive.Stop()
	}
	if c.udpRegRetry != nil {
		c.udpRegRetry.Stop()
	}
	if c.udp != nil {
		c.udp.Close()
	}
	c.tcpClose()
}

// nonce draws a session authentication nonce (§3.4: "a random nonce
// pre-arranged through S").
func (c *Client) nonce() uint64 {
	n := c.rand().Uint64()
	if n == 0 {
		n = 1
	}
	return n
}

// --- extension surface for the candidate-negotiation engine ---

// SetUDPIntercept installs fn ahead of the client's own UDP message
// dispatch; fn returning true consumes the message. One interceptor
// at a time (internal/ice installs itself here).
func (c *Client) SetUDPIntercept(fn func(from inet.Endpoint, m *proto.Message) bool) {
	c.udpIntercept = fn
}

// UDPIntercept returns the installed interceptor (nil when none), so
// test harnesses can chain fault-injection filters in front of it.
func (c *Client) UDPIntercept() func(from inet.Endpoint, m *proto.Message) bool {
	return c.udpIntercept
}

// Server returns the current rendezvous server's endpoint (the pool
// head, until failover re-homes the client).
func (c *Client) Server() inet.Endpoint { return c.server }

// SetServerPool installs a preference-ordered rendezvous server pool
// (see rendezvous.Preference for the stable ordering clients and
// servers agree on): the client registers with the head and fails
// over down the list — wrapping around — when its current server goes
// silent for ServerFailoverAfter. Call before RegisterUDP.
func (c *Client) SetServerPool(eps []inet.Endpoint) {
	if len(eps) == 0 {
		return
	}
	c.pool = append([]inet.Endpoint(nil), eps...)
	c.poolIdx = 0
	c.server = c.pool[0]
}

// ServerPool returns the installed pool (nil for single-server
// clients).
func (c *Client) ServerPool() []inet.Endpoint {
	return append([]inet.Endpoint(nil), c.pool...)
}

// relayRoute picks where a relay-fallback session's traffic goes: a
// standalone relay server chosen by a stable hash of the unordered
// peer pair (so both ends pick the same one), or — dynamically — the
// client's current rendezvous server, which survives failover because
// it is re-resolved on every send.
func (c *Client) relayRoute(peer string) (ep inet.Endpoint, dynamic bool) {
	if len(c.cfg.RelayServers) == 0 {
		return c.server, true
	}
	a, b := c.name, peer
	if b < a {
		a, b = b, a
	}
	h := fnv.New64a()
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	return c.cfg.RelayServers[h.Sum64()%uint64(len(c.cfg.RelayServers))], false
}

// RelayVia reports which server would carry a relay-fallback session
// with peer (the candidate endpoint the ICE engine nominates for the
// §2.2 floor).
func (c *Client) RelayVia(peer string) inet.Endpoint {
	ep, _ := c.relayRoute(peer)
	return ep
}

// Closed reports whether the client has been closed.
func (c *Client) Closed() bool { return c.closed }

// Config returns the client's effective (defaulted) configuration.
func (c *Client) Config() Config { return c.cfg }

// NextNonce draws a fresh session nonce from the deterministic
// simulation source, for negotiations conducted outside ConnectUDP.
func (c *Client) NextNonce() uint64 { return c.nonce() }

// SendUDPMessage encodes and transmits m on the client's UDP socket,
// applying the client's obfuscation setting. to may be a peer
// candidate endpoint or the rendezvous server.
func (c *Client) SendUDPMessage(to inet.Endpoint, m *proto.Message) error {
	if c.udp == nil {
		return ErrNotRegistered
	}
	return c.sendUDP(to, m)
}

// AdoptUDPSession installs an externally negotiated session — the
// nomination step of the candidate engine. The session joins the
// client's table (so data, keep-alives, §3.6 idle death, and re-acks
// for late probes all work exactly as for natively punched sessions)
// and any previous session with the peer is closed first. The caller
// fires its own establishment callbacks.
func (c *Client) AdoptUDPSession(peer string, remote inet.Endpoint, via Method, nonce uint64, cb UDPCallbacks) *UDPSession {
	if prev := c.udpSessions[peer]; prev != nil {
		prev.Close()
	}
	s := c.newUDPSession(peer, remote, via, nonce, cb)
	c.tracef("udp session with %s adopted at %s (%s)", peer, remote, via)
	return s
}

// AbortUDP cancels an in-flight punching attempt we initiated toward
// peer without firing its callbacks — the release path for
// context-cancelled dials. It reports whether an attempt was
// cancelled. Responder-side attempts (the peer dialing us, §3.2 step
// 2's forwarded request) and established sessions are not affected:
// cancelling our dial must not kill the peer's crossing dial.
func (c *Client) AbortUDP(peer string) bool {
	aborted := false
	for _, a := range c.udpAttempts {
		if a.peer == peer && a.requester && !a.done {
			c.retireUDPAttempt(a)
			aborted = true
		}
	}
	if aborted {
		c.tracef("udp attempt to %s aborted", peer)
	}
	return aborted
}

// PendingUDPAttempts counts in-flight punching attempts — the
// accounting hook that cancellation tests recount against.
func (c *Client) PendingUDPAttempts() int { return len(c.udpAttempts) }

// UDPSessionCount counts live UDP sessions.
func (c *Client) UDPSessionCount() int { return len(c.udpSessions) }
