package natpunch

import (
	"time"

	"natpunch/internal/punch"
	"natpunch/transport"
)

// config collects the effective settings assembled from Options.
type config struct {
	punch           punch.Config
	localPort       transport.Port
	registerTimeout time.Duration
	servers         []transport.Endpoint
	onPathChange    func(peer, old, new string)
}

func defaultConfig() config {
	return config{registerTimeout: 15 * time.Second}
}

// Option tunes Open. The zero set yields UDP hole punching
// (§3.2-3.5) with the engine's default timers and no fallback: dials
// get the peer's public and private endpoints from S, run prioritized
// paced connectivity checks with peer-reflexive discovery, and lock in the
// first candidate that answers — same-NAT private paths (§3.3),
// punched public paths (§3.4), and hairpin paths under multi-level
// NAT (§3.5) under one policy.
type Option func(*config)

// WithICE does nothing: every dial negotiates candidates. It remains
// so that callers written when negotiation was optional still build.
func WithICE() Option { return func(*config) {} }

// WithRelayFallback enables falling back to relaying through S when
// punching (or every candidate check) fails — the §2.2 floor that
// always works while both peers can reach S.
func WithRelayFallback() Option { return func(c *config) { c.punch.RelayFallback = true } }

// Servers pools additional rendezvous servers with the one passed to
// Open. The endpoint's home server is chosen from the pool by stable
// rendezvous hashing of its name — every participant computes the
// same owner, and nothing but the pool's membership can re-home
// anyone — and the rest of the pool is the failover order: a home
// server that goes silent past its keep-alive grace is abandoned for
// the next member without tearing down established sessions. Pool
// servers should be federated, each joining every other
// (rendezvousapi.Server.Join / cmd/rendezvous -join), so peers homed
// on different members can still reach each other.
func Servers(eps ...transport.Endpoint) Option {
	return func(c *config) { c.servers = append(c.servers, eps...) }
}

// WithRelayServers routes the §2.2 relay fallback through standalone
// relay hosts (rendezvousapi.WithRelayOnly, cmd/rendezvous -relay-only)
// instead of the rendezvous server, keeping payload load off the brokering
// tier. Each relayed session picks one host by a stable hash of the
// peer pair, so both ends meet at the same relay; the endpoint
// registers and keep-alives with every listed host so a fallback can
// engage instantly. Implies WithRelayFallback.
func WithRelayServers(eps ...transport.Endpoint) Option {
	return func(c *config) {
		c.punch.RelayServers = append(c.punch.RelayServers, eps...)
		c.punch.RelayFallback = true
	}
}

// WithRelayFirst makes dials return a working Conn as soon as the
// §2.2 relay path through S is confirmed — about one rendezvous
// round-trip — while hole punching (§3.3-3.5) continues in the
// background. When a direct path is punched, the live session
// migrates onto it without loss or reordering (a sequence-tagged
// drain-then-switch cutover); Conn.Path() then reports the upgraded
// path. Peers that can never punch (e.g. symmetric<->symmetric, §5.1)
// simply stay on the relay. Implies WithRelayFallback and
// WithPathUpgrade.
func WithRelayFirst() Option {
	return func(c *config) {
		c.punch.RelayFirst = true
		c.punch.PathUpgrade = true
		c.punch.RelayFallback = true
	}
}

// WithPathUpgrade keeps established sessions mobile without changing
// how dials establish: a session on the relay periodically re-punches
// toward the direct path, a direct session whose path goes dark fails
// back to the relay instead of dying under §3.6 idle detection, and a
// peer whose NAT rebound mid-session is followed to its new mapping.
// Implied by WithRelayFirst.
func WithPathUpgrade() Option {
	return func(c *config) { c.punch.PathUpgrade = true }
}

// WithOnPathChange installs a hook observing live path migrations:
// fn(peer, old, new) runs whenever an established session moves
// between paths ("relay" -> "public" on upgrade, back on failback).
// The hook is called from the engine's dispatch context and must not
// block; Conn.Path() already reflects the new path when it fires. In a
// simnet world that context holds the world's lock, so the hook must
// not call simnet.World.Now (it takes the lock and deadlocks): read the
// clock through the host's transport instead (simnet.Host.Transport's
// Now), which takes no lock.
func WithOnPathChange(fn func(peer, old, new string)) Option {
	return func(c *config) { c.onPathChange = fn }
}

// WithKeepAlive tunes §3.6 session maintenance: interval paces
// session and registration keep-alives; deadAfter declares a session
// dead when nothing has been received for that long (surfaced as a
// read error on the Conn, after which the application may re-dial).
func WithKeepAlive(interval, deadAfter time.Duration) Option {
	return func(c *config) {
		c.punch.KeepAliveInterval = interval
		c.punch.DeadAfter = deadAfter
	}
}

// WithStreams does nothing: Conn.Carry, which natpunch/stream builds
// on, works on every Conn. It remains so that callers written when
// carrying streams had to be enabled still build.
func WithStreams() Option { return func(*config) {} }

// WithObfuscation one's-complements addresses inside message bodies
// (§3.1) to defeat NATs that blindly rewrite payload bytes resembling
// private addresses (§5.3).
func WithObfuscation() Option { return func(c *config) { c.punch.Obfuscate = true } }

// WithPunchTimeout bounds each dial's negotiation; at the deadline
// the relay is nominated when enabled, otherwise the dial fails.
func WithPunchTimeout(d time.Duration) Option {
	return func(c *config) { c.punch.PunchTimeout = d }
}

// WithLocalPort binds the endpoint's socket(s) to a specific local
// port instead of an ephemeral one.
func WithLocalPort(p uint16) Option {
	return func(c *config) { c.localPort = transport.Port(p) }
}

// WithRegisterTimeout bounds how long Open waits (in wall-clock time)
// for registration with the rendezvous server to complete.
func WithRegisterTimeout(d time.Duration) Option {
	return func(c *config) { c.registerTimeout = d }
}
