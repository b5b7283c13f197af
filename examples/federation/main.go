// Federation: the multi-server deployment the paper's single
// well-known S (§3.1) grows into at scale. Two federated rendezvous
// servers plus a standalone §2.2 relay host serve a simulated world;
// alice homes on S1 and erin on S2 (stable hashing over the pool picks
// homes, the rest is each client's failover order), yet they punch a
// direct session exactly as in the single-server quickstart — and
// when alice's home server dies mid-run, she re-homes to the survivor
// without losing the established session.
//
// The same code runs over real sockets: start two
// `cmd/rendezvous -join ...` instances and a `-relay-only` host, then
// swap the simnet transports for natpunch/realudp ones.
package main

import (
	"fmt"
	"time"

	"natpunch"
	"natpunch/relayapi"
	"natpunch/rendezvousapi"
	"natpunch/simnet"
	"natpunch/transport"
)

func main() {
	world := simnet.NewWorld(42)
	defer world.Close()
	core := world.Core()

	// The rendezvous tier: two federated servers and one relay host.
	s1, err := rendezvousapi.Serve(core.AddHost("S1", "18.181.0.31").Transport(), 1234)
	check(err)
	s2, err := rendezvousapi.Serve(core.AddHost("S2", "18.181.0.32").Transport(), 1234)
	check(err)
	s1.Join(s2.Endpoint()) // links are bidirectional after the hello exchange
	relay, err := relayapi.Serve(core.AddHost("R", "18.181.0.40").Transport(), 1234)
	check(err)
	pool := []transport.Endpoint{s1.Endpoint(), s2.Endpoint()}

	realmA := core.AddSite("NAT-A", simnet.Cone(), "155.99.25.11", "10.0.0.0/24")
	realmB := core.AddSite("NAT-B", simnet.Cone(), "138.76.29.7", "10.1.1.0/24")

	open := func(host *simnet.Host, name string) *natpunch.Dialer {
		d, err := natpunch.Open(host.Transport(), name, transport.Endpoint{},
			natpunch.Servers(pool...),
			natpunch.WithRelayServers(relay.Endpoint()),
			natpunch.WithKeepAlive(5*time.Second, 60*time.Second))
		check(err)
		return d
	}
	alice := open(realmA.AddHost("A", "10.0.0.1"), "alice")
	defer alice.Close()
	erin := open(realmB.AddHost("B", "10.1.1.3"), "erin")
	defer erin.Close()
	fmt.Printf("alice homed on %v, erin homed on %v\n", alice.ServerEndpoint(), erin.ServerEndpoint())

	ln, err := erin.Listen()
	check(err)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
		buf := make([]byte, 2048)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			conn.Write(append([]byte("echo:"), buf[:n]...))
		}
	}()

	// A cross-server dial: S-side brokering crosses the federation
	// link, the punch itself is peer-to-peer as always.
	conn, err := alice.Dial("erin")
	check(err)
	defer conn.Close()
	fmt.Printf("alice -> erin established via %s path\n", conn.Path())
	roundTrip(conn, "hello across the federation")

	// Kill alice's home server. Her pool re-homes her; the punched
	// session never depended on the dead server and keeps working.
	home := alice.ServerEndpoint()
	if home == s1.Endpoint() {
		s1.Close()
	} else {
		s2.Close()
	}
	fmt.Printf("killed alice's home server %v\n", home)
	for alice.ServerEndpoint() == home {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("alice failed over to %v (%d failover)\n", alice.ServerEndpoint(), alice.Failovers())
	roundTrip(conn, "still connected after failover")

	fmt.Println("federated deployment carried traffic across servers and through failover")
}

func roundTrip(conn *natpunch.Conn, msg string) {
	_, err := conn.Write([]byte(msg))
	check(err)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	check(err)
	fmt.Printf("alice got %q\n", buf[:n])
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
