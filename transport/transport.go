// Package transport defines the seam between the natpunch engine and
// the network it runs on: a small sockets-and-timers interface that
// the hole-punching client (internal/punch), the candidate-negotiation
// engine (internal/ice), and the rendezvous server
// (internal/rendezvous) are written against.
//
// Two implementations ship with the repository:
//
//   - the deterministic discrete-event simulator (a *host.Host adapts
//     itself via Host.Transport; package natpunch/simnet wraps whole
//     simulated worlds for the public facade), and
//   - real UDP sockets (package natpunch/realudp), where timers are
//     wall-clock timers and datagrams cross genuine kernel sockets.
//
// Because the engine speaks only this interface, the same protocol
// code — registration, punching, candidate checks, relay fallback,
// §3.6 keep-alives and idle-death — runs identically over both. That
// is the repository's layering: facade (natpunch) → engine
// (internal/*) → transport (this package and its implementations).
//
// # Concurrency contract
//
// The engine is single-threaded by construction: it never locks. A
// Transport implementation must therefore serialize everything that
// enters engine code — datagram delivery callbacks, timer callbacks,
// and work submitted through Invoke all run mutually excluded, and
// the engine only ever calls BindUDP, After, Now, Rand, and (where the
// transport has them) Deferrer's Defer and InPlaceSender's Reserve and
// Commit from inside that serialized context. Application-side callers
// (the facade, adapters, tests) must enter the engine exclusively
// through Invoke.
//
// Timer.Stop and Timer.Active are likewise only called from inside
// the serialized context, which is what lets the real-socket
// implementation keep them lock-free.
package transport

import (
	"math/rand"
	"time"

	"natpunch/internal/inet"
)

// Endpoint is a transport address: an (IPv4 address, port) pair, the
// unit of NAT translation throughout the paper (§2.1). It is an alias
// for the engine's wire-level endpoint type, so values flow between
// the public API and the engine without conversion.
type Endpoint = inet.Endpoint

// Addr is an IPv4 address in host byte order.
type Addr = inet.Addr

// Port is a 16-bit transport port number.
type Port = inet.Port

// ParseEndpoint parses "addr:port" notation, e.g. "155.99.25.11:62000".
func ParseEndpoint(s string) (Endpoint, error) { return inet.ParseEndpoint(s) }

// MustParseEndpoint is ParseEndpoint that panics on error.
func MustParseEndpoint(s string) Endpoint { return inet.MustParseEndpoint(s) }

// ParseAddr parses a dotted-quad IPv4 address such as "155.99.25.11".
func ParseAddr(s string) (Addr, error) { return inet.ParseAddr(s) }

// Timer is a handle to a scheduled callback, allowing cancellation.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending
	// (false if it already fired or was stopped).
	Stop() bool
	// Active reports whether the timer is still pending.
	Active() bool
}

// UDPConn is one bound UDP socket.
type UDPConn interface {
	// Local returns the socket's bound endpoint — the client's
	// *private endpoint* in the paper's terminology (§3.1).
	Local() Endpoint
	// OnRecv installs the datagram delivery callback. The callback
	// runs inside the transport's serialized context. The payload
	// slice is owned by the transport and valid only for the duration
	// of the callback: implementations reuse receive buffers across
	// datagrams, so engine code must copy what it keeps before returning
	// (it does: proto.Decode copies, and what proto.Decoder leaves
	// pointing into the payload is copied by whoever holds on to it).
	OnRecv(fn func(from Endpoint, payload []byte))
	// SendTo transmits one datagram to the given endpoint.
	SendTo(to Endpoint, payload []byte) error
	// Close releases the socket and its port.
	Close()
}

// Transport is the engine's view of a network stack: sockets, timers,
// a clock, and a randomness source. See the package comment for the
// concurrency contract.
type Transport interface {
	// BindUDP binds a UDP socket. Port 0 requests an ephemeral port
	// (or, for socket-per-transport implementations like realudp, the
	// transport's configured local address).
	BindUDP(port Port) (UDPConn, error)
	// After schedules fn to run d from now in the transport's
	// serialized context.
	After(d time.Duration, fn func()) Timer
	// Now returns the transport's clock: virtual time for the
	// simulator, monotonic elapsed wall time for real sockets. Only
	// differences of Now values are meaningful, and an implementation
	// may hold the clock still while one delivered batch, Invoke body
	// or timer callback runs (realudp reads it once as each begins).
	Now() time.Duration
	// Rand returns the randomness source used for nonces and any
	// randomized protocol behavior. Deterministic transports return a
	// seeded source so runs are reproducible.
	Rand() *rand.Rand
	// Invoke runs fn serialized with all delivery and timer
	// callbacks. It is the only way application-side code may enter
	// engine state; fn must not call Invoke recursively.
	Invoke(fn func())
}

// ScratchSender is an optional UDPConn capability declaring that
// SendTo does not retain the payload slice after it returns: the
// implementation hands the bytes to the kernel (or copies them into
// its own batching slots) before returning. Engine hot paths — the
// rendezvous forwarder, the §2.2 relay and the punch client's session
// datagrams — probe for it and, when present, re-encode into a
// reusable scratch buffer instead of allocating a fresh encoding per
// datagram. The simulated transport deliberately does not implement
// it: queued simulated packets reference the payload slice, so senders
// must allocate fresh.
type ScratchSender interface {
	// ScratchSendOK reports that SendTo releases the payload slice
	// before returning.
	ScratchSendOK() bool
}

// InPlaceSender is an optional UDPConn capability for implementations
// that queue what they are sent: the conn lends the memory its next
// datagram will leave from, the engine encodes the datagram there —
// envelope, then frames, each written once — and hands it back, so the
// bytes are not copied again on their way to the kernel. Engine hot
// paths (the punch client's and the rendezvous server's sendUDP, a
// session's BeginSend/EndSend under the stream engine) probe for it by
// type assertion, like ScratchSender. Only realudp's conns implement
// it. A conn without it is sent the same bytes through SendTo, from a
// reused scratch (ScratchSender) or a fresh array (the simulated
// transport, which keeps what it is sent).
type InPlaceSender interface {
	// Reserve returns an empty buffer to append the next datagram to:
	// the tail of the conn's send queue, with whatever room the conn
	// keeps there (appends that outgrow it reallocate, as appends do,
	// and Commit then copies). The buffer is the conn's. It is valid
	// until the Commit that follows, and nothing else may be sent on
	// the conn in between; it must not be kept, handed to another
	// goroutine or captured by anything that runs later. Engine context
	// only.
	Reserve() []byte
	// Commit sends p, what the caller appended to the reserved buffer,
	// to the given endpoint. Any other p — one the appends outgrew and
	// reallocated, one of the caller's own, one reserved before
	// something else was sent — is sent too, through a copy. On a conn
	// that is not queueing (closed, or outside the transport's
	// serialized context) the datagram is written at once and the
	// error returned. Engine context only.
	Commit(to Endpoint, p []byte) error
}

// Deferrer is an optional Transport capability for implementations
// whose serialized context has a boundary the engine can batch against:
// an entry — one delivered batch of datagrams, one Invoke body, one
// timer callback — after which everything the entry sent leaves at
// once. Engine code that would otherwise do the same work once per
// datagram of a batch (the stream engine's flush, the stream facade's
// wake-up) probes for it and does that work once per entry. A
// transport without it has no such boundary and the engine works per
// datagram; the simulated transport deliberately does not implement
// it, which keeps simulated runs datagram for datagram what they were.
type Deferrer interface {
	// Defer runs fn once, in the serialized context, after the engine
	// code of the entry that is running returns and before that entry's
	// sends leave. A function deferred by a deferred function runs in
	// the same entry. Engine context only; after the transport is
	// closed nothing deferred runs.
	Defer(fn func())
}

// Waiter is an optional Transport capability for virtual-time
// implementations: the facade brackets every blocking wait (dial,
// read, accept) with AddWaiter/RemoveWaiter, and the simulated world
// only advances virtual time while at least one waiter is blocked.
// Real-time transports simply do not implement it.
type Waiter interface {
	AddWaiter()
	RemoveWaiter()
}
