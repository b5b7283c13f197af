// Command punch is the real-network hole punching client, driven
// entirely through the public natpunch Dialer/Listener/Conn API over
// a realudp transport: register with a rendezvous server under a
// name, then punch a UDP session to a peer by name and exchange a
// greeting.
//
// Run the server and two clients (possibly behind different NATs):
//
//	go run ./cmd/rendezvous -listen 0.0.0.0:7000
//	go run ./cmd/punch -name alice -server <server-ip>:7000 -wait
//	go run ./cmd/punch -name bob -server <server-ip>:7000 -peer alice
//
// Dials negotiate candidates (the peer's private and public endpoints
// from the server, public ones on a shared NAT checked as hairpin, with
// peer-reflexive discovery); add -relay to fall back
// to relaying through the server when punching fails.
//
// Against a federated deployment, -servers pools extra rendezvous
// servers (home by stable hashing, the rest is the failover order)
// and -relay-servers parks the §2.2 fallback on dedicated relay
// hosts (cmd/rendezvous -relay-only).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"natpunch"
	"natpunch/realudp"
	"natpunch/transport"
)

func main() {
	name := flag.String("name", "", "client name to register")
	server := flag.String("server", "127.0.0.1:7000", "rendezvous server address")
	servers := flag.String("servers", "", "extra rendezvous servers to pool for failover (host:port,...)")
	relayServers := flag.String("relay-servers", "", "standalone relay servers for the §2.2 fallback (host:port,...)")
	peer := flag.String("peer", "", "peer name to punch to (empty: wait for peers)")
	wait := flag.Bool("wait", false, "stay online waiting for inbound sessions")
	timeout := flag.Duration("timeout", 15*time.Second, "punch timeout")
	useRelay := flag.Bool("relay", false, "fall back to relaying through the server")
	flag.Parse()

	if *name == "" {
		fmt.Fprintln(os.Stderr, "-name is required")
		os.Exit(1)
	}
	tr, err := realudp.New("0.0.0.0:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tr.Close()
	serverEP, err := realudp.ResolveEndpoint(*server)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := []natpunch.Option{
		natpunch.WithPunchTimeout(*timeout),
		natpunch.WithRegisterTimeout(10 * time.Second),
	}
	if *useRelay {
		opts = append(opts, natpunch.WithRelayFallback())
	}
	resolveList := func(csv string) []transport.Endpoint {
		var eps []transport.Endpoint
		if csv == "" {
			return nil
		}
		for _, s := range strings.Split(csv, ",") {
			ep, err := realudp.ResolveEndpoint(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			eps = append(eps, ep)
		}
		return eps
	}
	if pool := resolveList(*servers); len(pool) > 0 {
		opts = append(opts, natpunch.Servers(pool...))
	}
	if relays := resolveList(*relayServers); len(relays) > 0 {
		opts = append(opts, natpunch.WithRelayServers(relays...))
	}
	d, err := natpunch.Open(tr, *name, serverEP, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer d.Close()
	fmt.Printf("registered as %q; public endpoint %s, home server %s\n",
		*name, d.PublicAddr(), d.ServerEndpoint())

	ln, err := d.Listen()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	go func() {
		for {
			conn, err := ln.AcceptConn()
			if err != nil {
				return
			}
			fmt.Printf("inbound session from %s via %s at %s\n",
				conn.Peer(), conn.Path(), conn.RemoteAddr())
			go serve(conn, *name)
		}
	}()

	if *peer != "" {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
		defer cancel()
		conn, err := d.DialContext(ctx, *peer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("punched session to %s via %s at %s\n",
			conn.Peer(), conn.Path(), conn.RemoteAddr())
		conn.Write([]byte("hello from " + *name))
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1500)
		if n, err := conn.Read(buf); err == nil {
			fmt.Printf("[%s] %s\n", conn.Peer(), buf[:n])
		}
	}
	if *wait {
		fmt.Println("waiting for inbound sessions (ctrl-c to exit)")
		select {}
	}
}

// serve answers each greeting on an inbound session.
func serve(conn *natpunch.Conn, name string) {
	buf := make([]byte, 1500)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return
		}
		fmt.Printf("[%s] %s\n", conn.Peer(), buf[:n])
		conn.Write([]byte("hello from " + name))
	}
}
