// Package punch implements the paper's contribution: hole punching
// for UDP (§3) and TCP (§4) with a rendezvous server, plus the
// companion techniques — relaying (§2.2), connection reversal (§2.3),
// and the sequential TCP variant (§4.5).
//
// A Client dials in two ways. Connect is the one every production
// caller uses: a candidate negotiation (negotiate.go) that exchanges
// private, public and discovered candidates through S, locks in the
// first one a check reaches, falls back to the relay, and re-punches
// live sessions that ride it (migrate.go). ConnectUDP is the paper's
// plain §3.2 attempt on the public/private endpoint pair.
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
	"hash/fnv"
	"iter"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/ice"
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

// ProbeInterval is the UDP probe retransmission interval, of §3.2's
// punch attempts and of negotiation checks alike.
const ProbeInterval = 100 * time.Millisecond

// Config tunes the punching procedures. Zero values take defaults.
type Config struct {
	// PunchTimeout bounds the whole punching attempt (both
	// protocols); §4.2 step 4's "application-defined maximum timeout
	// period".
	PunchTimeout time.Duration // default 10s
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
	// RelayServers lists standalone §2.2 relay services (relay-only
	// servers, rendezvous.Config.RelayOnly). When non-empty,
	// relay-fallback sessions route through one of these (chosen by a
	// stable hash of the peer pair, so both ends agree) instead of
	// loading the rendezvous server; the client registers and
	// keep-alives with each so its NAT keeps a mapping open toward them.
	RelayServers []inet.Endpoint
	// RelayFirst makes a candidate negotiation (Connect) establish
	// its session through the §2.2 relay the moment the candidate
	// exchange completes — roughly one rendezvous round-trip after
	// the dial — while the checks continue in the background; a
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
	// periodic background re-negotiation while a session rides the
	// relay.
	PathUpgrade bool
	// RepunchEvery paces the background re-punch attempts of an
	// upgradable session riding the relay.
	RepunchEvery time.Duration // default 30s
	// ICE ablates candidate types from negotiations (gathering and
	// checking alike), for the experiments that measure what each
	// type is worth.
	ICE ice.Config
}

func (c Config) withDefaults() Config {
	if c.PunchTimeout == 0 {
		c.PunchTimeout = 10 * time.Second
	}
	if c.KeepAliveInterval == 0 {
		c.KeepAliveInterval = 15 * time.Second
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 60 * time.Second
	}
	if c.RelayFirst {
		c.PathUpgrade = true
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

// serverFailoverAfter is how long the rendezvous server may stay
// silent — no keep-alive acks, no replies of any kind — before a
// client with a server pool re-homes to the next server in its
// preference order: 3x KeepAliveInterval, clamped below DeadAfter so
// relay sessions riding the home server can re-route to the new home
// before §3.6 declares them dead.
func (c Config) serverFailoverAfter() time.Duration {
	if d := 3 * c.KeepAliveInterval; d < c.DeadAfter {
		return d
	}
	return c.DeadAfter * 3 / 4
}

// Fixed timers of the procedures.
const (
	// connectRetryInterval is the delay before re-trying a failed TCP
	// connect ("e.g., one second", §4.2 step 4).
	connectRetryInterval = time.Second
	// authTimeout bounds how long an unauthenticated TCP stream may
	// stay open before being discarded (§4.2 step 5).
	authTimeout = 3 * time.Second
	// drainTimeout bounds how long a migrating session's receiver
	// holds new-path datagrams while the old path's in-flight tail
	// drains (the tail may have been lost on real networks).
	drainTimeout = time.Second
)

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

	// Allocation-free datagram path: every inbound datagram decodes
	// into dec's one reused Message — its Data the datagram's own bytes,
	// valid until the handler returns, so whatever outlives it copies —
	// and every send is encoded into the buffer sender lends
	// (transport.SendBuffer).
	sender transport.InPlaceSender
	dec    proto.Decoder

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
	// Failovers counts server switches.
	Failovers int

	// relayReg tracks which standalone relay servers have acked our
	// registration (we keep re-registering until they do).
	relayReg map[inet.Endpoint]bool

	udpAttempts map[uint64]*udpAttempt
	// udpInbound indexes the pending peer-initiated attempts by peer:
	// relayed traffic names its sender but carries no nonce.
	udpInbound  map[string]*udpAttempt
	udpSessions map[string]*UDPSession

	// InboundUDP supplies callbacks for sessions initiated by peers
	// (a forwarded connection request or candidate offer arrives
	// without any local call).
	InboundUDP UDPCallbacks

	// Candidate negotiations (negotiate.go).
	negState

	// testDispatch, set only by tests (export_test.go), runs in place
	// of dispatchUDP for every decoded message, to drop, hold or
	// observe it.
	testDispatch func(from inet.Endpoint, m *proto.Message)

	// TCP state (tcp.go).
	tcpState

	closed bool
}

// NewClientOver creates a punching client over an arbitrary
// transport. The full engine — candidate negotiation, UDP punching,
// keep-alives, idle death, relay fallback — is available on any
// transport; the TCP procedures additionally require the transport's
// SimHost capability.
func NewClientOver(tr transport.Transport, name string, server inet.Endpoint, cfg Config) *Client {
	c := &Client{
		tr:          tr,
		name:        name,
		server:      server,
		cfg:         cfg.withDefaults(),
		udpAttempts: make(map[uint64]*udpAttempt),
		udpInbound:  make(map[string]*udpAttempt),
		udpSessions: make(map[string]*UDPSession),
		negState: negState{
			negs:       make(map[uint64]*negotiation),
			negByPeer:  make(map[string]*negotiation),
			negInbound: make(map[string]*negotiation),
		},
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

// Close tears down sockets, sessions, and timers. In-flight attempts
// and negotiations are retired without callbacks.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	//natlint:ignore maporder closing a session stops its timers and sends nothing
	for _, s := range c.udpSessions {
		s.Close()
	}
	//natlint:ignore maporder timer stops only
	for _, a := range c.udpAttempts {
		a.stop()
	}
	//natlint:ignore maporder timer stops only
	for _, n := range c.negs {
		n.stop()
	}
	clear(c.udpAttempts)
	clear(c.udpInbound)
	clear(c.negs)
	clear(c.negByPeer)
	clear(c.negInbound)
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

// inNonceOrder yields the attempts of m in nonce order, skipping any
// retired while the loop runs: loops that send or fire callbacks walk
// attempts this way, so a seed replays exactly.
func inNonceOrder[A any](m map[uint64]*A) iter.Seq[*A] {
	return func(yield func(*A) bool) {
		for _, n := range slices.Sorted(maps.Keys(m)) {
			if a := m[n]; a != nil && !yield(a) {
				return
			}
		}
	}
}

// Server returns the current rendezvous server's endpoint (the pool
// head, until failover re-homes the client).
func (c *Client) Server() inet.Endpoint { return c.server }

// SetServerPool installs a preference-ordered rendezvous server pool
// (see rendezvous.Preference for the stable ordering clients and
// servers agree on): the client registers with the head and fails
// over down the list — wrapping around — when its current server goes
// silent for serverFailoverAfter. Call before RegisterUDP.
func (c *Client) SetServerPool(eps []inet.Endpoint) {
	if len(eps) == 0 {
		return
	}
	c.pool = append([]inet.Endpoint(nil), eps...)
	c.poolIdx = 0
	c.server = c.pool[0]
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

// PendingUDPAttempts counts in-flight UDP punching attempts and
// negotiations — the accounting hook that cancellation tests recount
// against.
func (c *Client) PendingUDPAttempts() int { return len(c.udpAttempts) + len(c.negs) }

// UDPSessionCount counts live UDP sessions.
func (c *Client) UDPSessionCount() int { return len(c.udpSessions) }
