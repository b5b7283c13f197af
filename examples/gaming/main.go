// Gaming example: the online-gaming motivation from the paper's
// introduction. Six players behind a mix of NAT types (including one
// public host and one symmetric NAT) build a full mesh with ICE-style
// candidate negotiation plus relay fallback, and the example prints
// the connectivity matrix with the path class used per pair — all
// through the public Dialer/Listener/Conn API.
package main

import (
	"fmt"
	"sync"
	"time"

	"natpunch"
	"natpunch/rendezvousapi"
	"natpunch/simnet"
)

func main() {
	world := simnet.NewWorld(99)
	defer world.Close()
	core := world.Core()
	s := core.AddHost("S", "18.181.0.31")
	server, err := rendezvousapi.Serve(s.Transport(), 1234)
	check(err)

	// Players: two behind cones, one full-cone, one restricted, one
	// symmetric, one public.
	specs := []struct {
		name string
		nat  *simnet.NAT
	}{
		{"ann", natPtr(simnet.Cone())},
		{"ben", natPtr(simnet.Cone())},
		{"cho", natPtr(simnet.FullCone())},
		{"dee", natPtr(simnet.RestrictedCone())},
		{"eve", natPtr(simnet.Symmetric())},
		{"fox", nil}, // public host
	}
	opts := []natpunch.Option{
		natpunch.WithRelayFallback(),
		natpunch.WithPunchTimeout(4 * time.Second),
	}
	players := make(map[string]*natpunch.Dialer)
	var mu sync.Mutex
	received := 0
	for i, spec := range specs {
		var h *simnet.Host
		if spec.nat == nil {
			h = core.AddHost(spec.name, fmt.Sprintf("80.0.0.%d", i+1))
		} else {
			realm := core.AddSite("NAT-"+spec.name, *spec.nat,
				fmt.Sprintf("60.0.%d.1", i+1), "10.0.0.0/24")
			h = realm.AddHost(spec.name, "10.0.0.2")
		}
		d, err := natpunch.Open(h.Transport(), spec.name, server.Endpoint(), opts...)
		check(err)
		defer d.Close()
		players[spec.name] = d
		ln, err := d.Listen()
		check(err)
		// Every player reads game traffic off every inbound session.
		go func() {
			for {
				conn, err := ln.AcceptConn()
				if err != nil {
					return
				}
				go func() {
					buf := make([]byte, 256)
					for {
						if _, err := conn.Read(buf); err != nil {
							return
						}
						mu.Lock()
						received++
						mu.Unlock()
					}
				}()
			}
		}()
	}

	// Build the mesh: every unordered pair punches once and sends a
	// greeting over whatever path won.
	paths := map[[2]string]string{}
	for i, a := range specs {
		for _, b := range specs[i+1:] {
			conn, err := players[a.name].Dial(b.name)
			if err != nil {
				continue
			}
			paths[[2]string{a.name, b.name}] = conn.Path()
			conn.Write([]byte("gg"))
		}
	}

	fmt.Println("connectivity matrix (path class per pair):")
	fmt.Printf("%-6s", "")
	for _, s := range specs {
		fmt.Printf("%-9s", s.name)
	}
	fmt.Println()
	total, relayCount := 0, 0
	for i, a := range specs {
		fmt.Printf("%-6s", a.name)
		for j, b := range specs {
			switch {
			case i == j:
				fmt.Printf("%-9s", "-")
			case i < j:
				p, ok := paths[[2]string{a.name, b.name}]
				if !ok {
					fmt.Printf("%-9s", "FAIL")
					continue
				}
				total++
				if p == "relay" {
					relayCount++
				}
				fmt.Printf("%-9s", p)
			default:
				fmt.Printf("%-9s", ".")
			}
		}
		fmt.Println()
	}
	// Let the greetings land before reading the relay load.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := received >= total
		mu.Unlock()
		if ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("\n%d/%d pairs connected; %d needed the relay (symmetric NAT pairs)\n",
		total, len(specs)*(len(specs)-1)/2, relayCount)
	fmt.Printf("server relayed %d greeting messages for the relay pairs\n",
		server.Stats().RelayedMessages)
}

func natPtr(b simnet.NAT) *simnet.NAT { return &b }

func check(err error) {
	if err != nil {
		panic(err)
	}
}
