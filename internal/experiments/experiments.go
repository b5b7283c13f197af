// Package experiments contains one driver per table and figure in the
// paper, plus the section-level ablations. Each driver expresses its
// workload as a slice of independent (seed, scenario) runs — every
// run builds its own topology and simulator from scratch — and fans
// them out across a worker pool (see runner.go), rendering a
// paper-style text table that is byte-identical at any worker count;
// EXPERIMENTS.md records the outputs against the paper's published
// values.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/topo"
)

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	Table string
	Notes []string
	// Metrics are machine-readable values for benches and docs.
	Metrics map[string]float64
}

// String renders the result for terminal output.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment pairs an ID with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64) Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Table 1: NAT Check survey over vendor populations", Table1Survey},
		{"E2", "Figure 1: address realms and reachability", Fig1AddressRealms},
		{"E3", "Figure 2: relaying cost", Fig2Relaying},
		{"E4", "Figure 3: connection reversal", Fig3ConnectionReversal},
		{"E5", "Figure 4: UDP hole punching, common NAT", Fig4CommonNAT},
		{"E6", "Figure 5: UDP hole punching, different NATs (behavior matrix)", Fig5DifferentNATs},
		{"E7", "Figure 6: multi-level NAT and hairpin", Fig6MultiLevel},
		{"E8", "Figure 7: sockets vs ports for TCP punching", Fig7PortReuse},
		{"E9", "Figure 8: NAT Check UDP methodology trace", Fig8NATCheckTrace},
		{"E10", "Sec 4.3: OS-dependent TCP punching behaviors", Sec43OSBehaviors},
		{"E11", "Sec 4.4: simultaneous TCP open", Sec44SimultaneousOpen},
		{"E12", "Sec 4.5: sequential vs parallel TCP punching", Sec45SequentialVsParallel},
		{"E13", "Sec 3.6: keep-alives vs NAT idle timeout", Sec36KeepAlives},
		{"E14", "Sec 5.1: symmetric NAT port prediction ablation", Sec51PortPrediction},
		{"E15", "Sec 5.2: RST vs drop refusal and punch latency", Sec52RSTvsDrop},
		{"E16", "Sec 5.3: payload mangling and obfuscation", Sec53Mangling},
		{"E17", "Aggregate: connector method distribution over population", ConnectorAggregate},
		{"E-FLEET", "Fleet: population-scale churn over the Table 1 NAT mix", FleetChurn},
		{"E-ICE", "ICE: candidate negotiation across heterogeneous fleet topologies", ICECandidates},
		{"E-FED", "Federation: sharded rendezvous tier, load skew, and mid-run server loss", Federation},
		{"E-UPGRADE", "Relay-first connect with live direct-path upgrade vs punch-at-dial", Upgrade},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table renders an aligned text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// --- shared punching harness ---

// pair is a canonical Figure-5 topology with registered punch
// clients.
type pair struct {
	*topo.Canonical
	srv  *rendezvous.Server
	a, b *punch.Client
}

const serverPort inet.Port = 1234

// newUDPPair builds and registers a UDP punching pair. It panics on
// topology errors (experiment code is trusted).
func newUDPPair(seed int64, behA, behB nat.Behavior, cfg punch.Config) *pair {
	c := topo.NewCanonical(seed, behA, behB)
	srv, err := rendezvous.New(c.S, serverPort, 0)
	if err != nil {
		panic(err)
	}
	p := &pair{Canonical: c, srv: srv}
	p.a = punch.NewClient(c.A, "alice", srv.Endpoint(), cfg)
	p.b = punch.NewClient(c.B, "bob", srv.Endpoint(), cfg)
	must(p.a.RegisterUDP(4321, nil))
	must(p.b.RegisterUDP(4321, nil))
	p.await(10*time.Second, func() bool { return p.a.UDPRegistered() && p.b.UDPRegistered() })
	return p
}

// newTCPPair is newUDPPair for TCP registration.
func newTCPPair(seed int64, behA, behB nat.Behavior, cfg punch.Config) *pair {
	c := topo.NewCanonical(seed, behA, behB)
	srv, err := rendezvous.New(c.S, serverPort, 0)
	if err != nil {
		panic(err)
	}
	p := &pair{Canonical: c, srv: srv}
	p.a = punch.NewClient(c.A, "alice", srv.Endpoint(), cfg)
	p.b = punch.NewClient(c.B, "bob", srv.Endpoint(), cfg)
	must(p.a.RegisterTCP(4321, nil))
	must(p.b.RegisterTCP(4321, nil))
	p.await(10*time.Second, func() bool { return p.a.TCPRegistered() && p.b.TCPRegistered() })
	return p
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// await runs the simulation until cond holds or the window passes,
// reporting whether cond held.
func (p *pair) await(window time.Duration, cond func() bool) bool {
	deadline := p.Net.Sched.Now() + window
	p.Net.Sched.RunWhile(func() bool {
		return !cond() && p.Net.Sched.Now() < deadline
	})
	return cond()
}

// udpOutcome runs a UDP punch and reports the outcome.
type udpOutcome struct {
	ok      bool
	via     punch.Method
	elapsed time.Duration
	session *punch.UDPSession
}

func (p *pair) punchUDP(window time.Duration) udpOutcome {
	start := p.Net.Sched.Now()
	var sa, sb *punch.UDPSession
	failed := false
	p.b.InboundUDP.Established = func(s *punch.UDPSession) { sb = s }
	p.a.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sa = s },
		Failed:      func(string, error) { failed = true },
	})
	p.await(window, func() bool { return (sa != nil && sb != nil) || failed })
	if sa == nil {
		return udpOutcome{}
	}
	return udpOutcome{ok: true, via: sa.Via, elapsed: p.Net.Sched.Now() - start, session: sa}
}

// tcpOutcome runs a TCP punch and reports the outcome.
type tcpOutcome struct {
	ok                 bool
	via                punch.Method
	elapsed            time.Duration
	aAccepted, bAccept bool
	sa, sb             *punch.TCPSession
}

func (p *pair) punchTCP(window time.Duration, sequential bool) tcpOutcome {
	start := p.Net.Sched.Now()
	var sa, sb *punch.TCPSession
	failed := false
	p.b.InboundTCP = punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sb = s }}
	cb := punch.TCPCallbacks{
		Established: func(s *punch.TCPSession) { sa = s },
		Failed:      func(string, error) { failed = true },
	}
	if sequential {
		p.a.ConnectTCPSequential("bob", cb)
	} else {
		p.a.ConnectTCP("bob", cb)
	}
	p.await(window, func() bool { return (sa != nil && (sb != nil || sa.Via == punch.MethodRelay)) || failed })
	if sa == nil {
		return tcpOutcome{}
	}
	out := tcpOutcome{ok: true, via: sa.Via, elapsed: p.Net.Sched.Now() - start, sa: sa, sb: sb}
	out.aAccepted = sa.Accepted
	if sb != nil {
		out.bAccept = sb.Accepted
	}
	return out
}

// behaviorByName maps short names used in matrix tables.
func behaviorByName(name string) nat.Behavior {
	switch name {
	case "full-cone":
		return nat.FullCone()
	case "restricted":
		return nat.RestrictedCone()
	case "port-restricted":
		return nat.Cone()
	case "symmetric":
		return nat.Symmetric()
	case "none":
		panic("no-NAT handled by caller")
	}
	panic("unknown behavior " + name)
}

// ms renders a duration in milliseconds for tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.0fms", float64(d)/float64(time.Millisecond))
}

// publicHostPair builds a reversal-style topology: A public, B NATed.
func publicHostPair(seed int64, behB nat.Behavior, cfg punch.Config) (*topo.Internet, *rendezvous.Server, *punch.Client, *punch.Client) {
	in := topo.NewInternet(seed)
	core := in.CoreRealm()
	s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
	hostA := core.AddHost("A", "155.99.25.80", host.BSDStyle)
	realmB := core.AddSite("NAT-B", behB, "138.76.29.7", "10.1.1.0/24")
	hostB := realmB.AddHost("B", "10.1.1.3", host.BSDStyle)
	srv, err := rendezvous.New(s, serverPort, 0)
	must(err)
	a := punch.NewClient(hostA, "alice", srv.Endpoint(), cfg)
	b := punch.NewClient(hostB, "bob", srv.Endpoint(), cfg)
	return in, srv, a, b
}
