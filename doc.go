// Package natpunch is the public connection API of a reproduction of
// "Peer-to-Peer Communication Across Network Address Translators"
// (Ford, Srisuresh, Kegel; USENIX ATC 2005): dial a peer by its
// rendezvous name and get back a net.Conn, with UDP hole punching
// (§3), ICE-style candidate negotiation, and relaying (§2.2)
// underneath, and multiplexed reliable streams (natpunch/stream) on
// top.
//
// The three facade types are Dialer (one named, registered endpoint),
// Listener (inbound sessions, a net.Listener), and Conn (an
// established session, a net.Conn). Open wires them to a rendezvous
// server over a Transport:
//
//	tr, _ := realudp.New("0.0.0.0:0")
//	server, _ := realudp.ResolveEndpoint("rendezvous.example.com:7000")
//	d, _ := natpunch.Open(tr, "alice", server,
//	        natpunch.WithRelayFallback())
//	conn, err := d.DialContext(ctx, "bob")
//
// The same calls run over the deterministic network simulator — NAT
// behavior models, nested Figure 4/5/6 topologies, a TCP state
// machine — by taking transports from a simnet.World instead; the
// examples/ directory exercises both. A differential conformance
// suite holds the two backends to the same outcome classes.
//
// # Layering
//
// The repository is structured facade → engine → transport:
//
//	natpunch (Dialer/Listener/Conn, options, blocking+context API)
//	  └─ internal/punch + internal/rendezvous
//	       └─ natpunch/transport (sockets, timers, clock, serialization)
//	            ├─ natpunch/simnet  (deterministic simulated worlds)
//	            └─ natpunch/realudp (real UDP sockets)
//
// The engine packages are single-threaded and lock-free; each
// Transport serializes everything that enters them. See
// natpunch/transport for the contract and docs/API.md for the design
// note (including how to add a transport).
//
// Candidate negotiation covers the paper's three direct-path
// topologies with one policy — private candidates for peers sharing a
// NAT (Figure 4):
//
//	      NAT (155.99.25.11)
//	           |
//	 10.0.0.0/24 segment
//	    |             |
//	A :4321 --LAN-- B :4321        private candidates win
//
// public candidates across distinct NATs (Figure 5), and hairpin
// candidates when multi-level NAT puts both peers behind one upper
// device (Figure 6):
//
//	   NAT C (155.99.25.11)       both peers' public address;
//	      172.16.0.0/24           A->B must hairpin off NAT C
//	     |             |
//	NAT A .1      NAT B .2
//	     |             |
//	 A 10.0.0.1    B 10.0.0.1
//
// with relaying (§2.2) as the nominated floor when every check fails.
//
// See README.md for the quickstart, EXPERIMENTS.md for the
// paper-vs-measured record, and bench_test.go for the per-table/
// figure benchmark harness. The runnable entry points are
// cmd/experiments, cmd/natcheck, cmd/rendezvous, cmd/punch, and the
// examples/ directory — all of which use only the public API.
package natpunch
