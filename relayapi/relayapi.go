// Package relayapi is a forwarding shim kept for the benchmark module:
// the standalone §2.2 relay is rendezvousapi.Serve with
// rendezvousapi.WithRelayOnly. ROADMAP item 1 moves the benchmark's
// calls onto that option and deletes this package.
package relayapi

import (
	"time"

	"natpunch/rendezvousapi"
	"natpunch/transport"
)

// Serve is rendezvousapi.Serve with rendezvousapi.WithRelayOnly.
func Serve(tr transport.Transport, port uint16, opts ...rendezvousapi.ServeOption) (*rendezvousapi.Server, error) {
	return rendezvousapi.Serve(tr, port, append(opts, rendezvousapi.WithRelayOnly())...)
}

// WithTTL is rendezvousapi.WithTTL.
func WithTTL(d time.Duration) rendezvousapi.ServeOption { return rendezvousapi.WithTTL(d) }
