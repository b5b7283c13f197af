package experiments

import (
	"fmt"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/natcheck"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/sim"
	"natpunch/internal/tcp"
	"natpunch/internal/topo"
	"natpunch/internal/trace"
)

// Fig1AddressRealms demonstrates the de-facto address architecture of
// Figure 1: who can open a session to whom across the global realm
// and two private realms.
func Fig1AddressRealms(seed int64) Result {
	c := topo.NewCanonical(seed, nat.Cone(), nat.Cone())
	// Echo responders on every host.
	hosts := map[string]*host.Host{"S (public)": c.S, "A (private 1)": c.A, "B (private 2)": c.B}
	order := []string{"S (public)", "A (private 1)", "B (private 2)"}
	eps := map[string]inet.Endpoint{}
	for _, name := range order {
		sock, err := hosts[name].UDPBind(9)
		must(err)
		eps[name] = sock.Local()
		s := sock
		sock.OnRecv(func(from inet.Endpoint, p []byte) { s.SendTo(from, p) })
	}
	// For private hosts, the "address" another realm would try is the
	// private address — unreachable, which is the architecture's point.
	var rows [][]string
	reachable := 0
	for _, src := range order {
		row := []string{src}
		for _, dst := range order {
			if src == dst {
				row = append(row, "-")
				continue
			}
			got := false
			sock, err := hosts[src].UDPBind(0)
			must(err)
			sock.OnRecv(func(inet.Endpoint, []byte) { got = true })
			sock.SendTo(eps[dst], []byte("ping"))
			deadline := c.Net.Sched.Now() + 2*time.Second
			c.Net.Sched.RunWhile(func() bool { return !got && c.Net.Sched.Now() < deadline })
			sock.Close()
			if got {
				reachable++
				row = append(row, "yes")
			} else {
				row = append(row, "no")
			}
		}
		rows = append(rows, row)
	}
	return Result{
		ID:    "E2",
		Title: "Figure 1 — session reachability across address realms (row dials column)",
		Table: table(append([]string{"from \\ to"}, order...), rows),
		Notes: []string{
			"private->public succeeds (outbound through NAT); anything->private fails: the asymmetry motivating hole punching (§1, §2.1)",
		},
		Metrics: map[string]float64{"reachable_pairs": float64(reachable)},
	}
}

// Fig2Relaying quantifies §2.2: message RTT and server load when a
// session falls back to relaying through S, against a punched direct
// path.
func Fig2Relaying(seed int64) Result {
	const messages = 50

	// Symmetric NATs on both sides: punching is impossible, so the
	// session lands on the relay floor.
	relayed := newUDPPair(seed, nat.Symmetric(), nat.Symmetric(), punch.Config{RelayFallback: true})
	done, relayRTT := relayed.pingPong(messages)
	relayBytes := relayed.srv.Stats().RelayedBytes

	// Cone NATs: the same exchange over the punched direct path.
	direct := newUDPPair(seed+1, nat.Cone(), nat.Cone(), punch.Config{})
	directDone, directRTT := direct.pingPong(messages)

	rows := [][]string{
		{"relayed (Figure 2)", fmt.Sprint(done), ms(relayRTT), fmt.Sprintf("%dB", relayBytes)},
		{"direct punched (§3)", fmt.Sprint(directDone), ms(directRTT), fmt.Sprintf("%dB", direct.srv.Stats().RelayedBytes)},
	}
	return Result{
		ID:    "E3",
		Title: "Figure 2 — relaying vs direct path: per-message RTT and server bytes",
		Table: table([]string{"path", "messages", "avg RTT", "server bytes forwarded"}, rows),
		Notes: []string{
			"relayed RTT is ~2x the direct RTT (two core traversals per leg) and every byte crosses the server: the §2.2 costs",
		},
		Metrics: map[string]float64{
			"relay_rtt_ms":  float64(relayRTT) / 1e6,
			"direct_rtt_ms": float64(directRTT) / 1e6,
			"relay_bytes":   float64(relayBytes),
		},
	}
}

// pingPong establishes alice's session to bob (bob echoing) and sends
// n 4-byte pings one at a time, each after the previous echo. It
// returns how many echoes came back and their average RTT.
func (p *pair) pingPong(n int) (echoes int, avg time.Duration) {
	p.b.InboundUDP.Data = func(s *punch.UDPSession, data []byte) { s.Send(data) }
	out := p.punchUDP(30 * time.Second)
	if !out.ok {
		return 0, 0
	}
	var total, sentAt time.Duration
	ping := func() {
		sentAt = p.Net.Sched.Now()
		out.session.Send([]byte("ping"))
	}
	out.session.OnData(func(*punch.UDPSession, []byte) {
		total += p.Net.Sched.Now() - sentAt
		echoes++
		if echoes < n {
			ping()
		}
	})
	ping()
	p.RunFor(time.Minute)
	if echoes > 0 {
		avg = total / time.Duration(echoes)
	}
	return echoes, avg
}

// Fig3ConnectionReversal reproduces §2.3: direct dialing a NATed peer
// fails; reversal through S succeeds.
func Fig3ConnectionReversal(seed int64) Result {
	in, srv, a, b := publicHostPair(seed, nat.Cone(), punch.Config{})
	must(a.RegisterTCP(4321, nil))
	must(b.RegisterTCP(4321, nil))
	await(in, 10*time.Second, func() bool { return a.TCPRegistered() && b.TCPRegistered() })

	// Direct attempt: dial B's (private, unroutable) address — the
	// only address A could know without S.
	directFailed := false
	host := a.Host()
	host.TCPConfig.SYNRetries = 2
	_, err := host.TCPDial(inet.EP("10.1.1.3", 4321), hostDialOpts(), tcpErrCB(&directFailed))
	must(err)
	await(in, time.Minute, func() bool { return directFailed })

	// Reversal.
	start := in.Net.Sched.Now()
	var sa *punch.TCPSession
	b.InboundTCP = punch.TCPCallbacks{}
	a.RequestReversal("bob", punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sa = s }})
	await(in, 30*time.Second, func() bool { return sa != nil })
	elapsed := in.Net.Sched.Now() - start

	rows := [][]string{
		{"direct dial to B", boolStr(!directFailed, "connected", "failed")},
		{"reversal via S (§2.3)", boolStr(sa != nil, "connected in "+ms(elapsed), "failed")},
	}
	ok := 0.0
	if sa != nil {
		ok = 1
	}
	return Result{
		ID:      "E4",
		Title:   "Figure 3 — connection reversal with one NATed peer",
		Table:   table([]string{"attempt", "outcome"}, rows),
		Notes:   []string{"reversal requests counted at S: " + fmt.Sprint(srv.Stats().ReversalRequests)},
		Metrics: map[string]float64{"reversal_ok": ok, "reversal_ms": float64(elapsed) / 1e6},
	}
}

// Fig4CommonNAT reproduces §3.3: peers behind a common NAT punch via
// their private endpoints; the public route needs hairpin support,
// which Table 1 shows is rare.
func Fig4CommonNAT(seed int64) Result {
	run := func(hairpin bool) (udpOutcome, nat.Stats) {
		b := nat.Cone()
		b.HairpinUDP = hairpin
		c := topo.NewCommonNAT(seed, b)
		srv, err := rendezvousNew(c.S)
		must(err)
		a := punch.NewClient(c.A, "alice", srv.Endpoint(), punch.Config{})
		bb := punch.NewClient(c.B, "bob", srv.Endpoint(), punch.Config{})
		must(a.RegisterUDP(4321, nil))
		must(bb.RegisterUDP(4321, nil))
		await(c.Internet, 10*time.Second, func() bool { return a.UDPRegistered() && bb.UDPRegistered() })
		var sa *punch.UDPSession
		failed := false
		start := c.Net.Sched.Now()
		bb.InboundUDP = punch.UDPCallbacks{}
		a.ConnectUDP("bob", punch.UDPCallbacks{
			Established: func(s *punch.UDPSession) { sa = s },
			Failed:      func(string, error) { failed = true },
		})
		await(c.Internet, 30*time.Second, func() bool { return sa != nil || failed })
		out := udpOutcome{}
		if sa != nil {
			out = udpOutcome{ok: true, via: sa.Via, elapsed: c.Net.Sched.Now() - start, session: sa}
		}
		return out, c.NAT.Stats()
	}

	type hpRun struct {
		out   udpOutcome
		stats nat.Stats
	}
	outs := fanOut(2, func(i int) hpRun {
		o, s := run(i == 1)
		return hpRun{o, s}
	})
	noHp, statsNo := outs[0].out, outs[0].stats
	hp, statsHp := outs[1].out, outs[1].stats
	rows := [][]string{
		{"no hairpin", boolStr(noHp.ok, "established", "failed"), noHp.via.String(), ms(noHp.elapsed), fmt.Sprint(statsNo.Hairpins)},
		{"hairpin", boolStr(hp.ok, "established", "failed"), hp.via.String(), ms(hp.elapsed), fmt.Sprint(statsHp.Hairpins)},
	}
	return Result{
		ID:    "E5",
		Title: "Figure 4 — peers behind a common NAT",
		Table: table([]string{"NAT config", "outcome", "locked endpoint", "time", "hairpinned packets"}, rows),
		Notes: []string{
			"both configurations lock the *private* endpoints: the LAN answers first (§3.3: 'likely to be faster'), so punching never depends on hairpin here",
			"with hairpin enabled the probes sent to public endpoints also loop through the NAT (hairpinned packets > 0) but lose the race",
		},
		Metrics: map[string]float64{
			"private_locked": boolMetric(noHp.via == punch.MethodPrivate && hp.via == punch.MethodPrivate),
			"time_ms":        float64(noHp.elapsed) / 1e6,
		},
	}
}

// Fig5DifferentNATs reproduces the canonical scenario and sweeps the
// mapping/filtering behavior matrix: which NAT combinations admit UDP
// hole punching (§3.4, §5.1).
func Fig5DifferentNATs(seed int64) Result {
	kinds := []string{"full-cone", "restricted", "port-restricted", "symmetric"}
	header := append([]string{"A \\ B"}, kinds...)
	// Each matrix cell is an isolated run; fan the 16 cells out.
	outs := fanOut(len(kinds)*len(kinds), func(i int) udpOutcome {
		ka, kb := kinds[i/len(kinds)], kinds[i%len(kinds)]
		p := newUDPPair(seed, behaviorByName(ka), behaviorByName(kb), punch.Config{PunchTimeout: 8 * time.Second})
		return p.punchUDP(30 * time.Second)
	})
	var rows [][]string
	successes := 0
	for a, ka := range kinds {
		row := []string{ka}
		for b := range kinds {
			out := outs[a*len(kinds)+b]
			cell := "fail"
			if out.ok {
				successes++
				cell = fmt.Sprintf("ok/%s", ms(out.elapsed))
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return Result{
		ID:    "E6",
		Title: "Figure 5 — UDP hole punching across different NAT behavior combinations",
		Table: table(header, rows),
		Notes: []string{
			"every cone x cone combination punches (§5.1's precondition)",
			"symmetric x {full-cone} still works: the cone side accepts the symmetric side's fresh mapping and replies to it — basic punching only truly dies when the symmetric side faces filtering",
			"the canonical run observed the paper's endpoints: A=10.0.0.1:4321 -> 155.99.25.11:62000, B=10.1.1.3:4321 -> 138.76.29.7:62000",
		},
		Metrics: map[string]float64{"successes": float64(successes), "combinations": 16},
	}
}

// Fig6MultiLevel reproduces §3.5: punching through an ISP NAT C
// requires hairpin support at C.
func Fig6MultiLevel(seed int64) Result {
	run := func(hairpinC bool) (udpOutcome, uint64) {
		behC := nat.Cone()
		behC.HairpinUDP = hairpinC
		m := topo.NewMultiLevel(seed, behC, nat.Cone(), nat.Cone())
		srv, err := rendezvousNew(m.S)
		must(err)
		a := punch.NewClient(m.A, "alice", srv.Endpoint(), punch.Config{PunchTimeout: 8 * time.Second})
		b := punch.NewClient(m.B, "bob", srv.Endpoint(), punch.Config{PunchTimeout: 8 * time.Second})
		must(a.RegisterUDP(4321, nil))
		must(b.RegisterUDP(4321, nil))
		await(m.Internet, 10*time.Second, func() bool { return a.UDPRegistered() && b.UDPRegistered() })
		var sa *punch.UDPSession
		failed := false
		start := m.Net.Sched.Now()
		b.InboundUDP = punch.UDPCallbacks{}
		a.ConnectUDP("bob", punch.UDPCallbacks{
			Established: func(s *punch.UDPSession) { sa = s },
			Failed:      func(string, error) { failed = true },
		})
		await(m.Internet, 30*time.Second, func() bool { return sa != nil || failed })
		out := udpOutcome{}
		if sa != nil {
			out = udpOutcome{ok: true, via: sa.Via, elapsed: m.Net.Sched.Now() - start}
		}
		return out, m.NATC.Stats().Hairpins
	}
	type hpRun struct {
		out      udpOutcome
		hairpins uint64
	}
	outs := fanOut(2, func(i int) hpRun {
		o, h := run(i == 1)
		return hpRun{o, h}
	})
	no, hairpinsNo := outs[0].out, outs[0].hairpins
	yes, hairpinsYes := outs[1].out, outs[1].hairpins
	rows := [][]string{
		{"NAT C without hairpin", boolStr(no.ok, "established", "failed"), fmt.Sprint(hairpinsNo)},
		{"NAT C with hairpin", boolStr(yes.ok, "established via "+yes.via.String(), "failed"), fmt.Sprint(hairpinsYes)},
	}
	return Result{
		ID:    "E7",
		Title: "Figure 6 — peers behind multiple levels of NAT",
		Table: table([]string{"configuration", "outcome", "packets hairpinned at NAT C"}, rows),
		Notes: []string{
			"§3.5: the clients can only use their global public endpoints, so NAT C must hairpin; consumer NATs A and B need only ordinary cone behavior",
			"Table 1 measured hairpin support at just 24% (UDP), making this the paper's hardest scenario",
		},
		Metrics: map[string]float64{"needs_hairpin": boolMetric(!no.ok && yes.ok)},
	}
}

// Fig7PortReuse reproduces Figure 7's socket accounting: one local
// TCP port shared by the S connection, the listener, and the two
// outgoing connection attempts — possible only with SO_REUSEADDR
// semantics (§4.1).
func Fig7PortReuse(seed int64) Result {
	p := newTCPPair(seed, nat.Cone(), nat.Cone(), punch.Config{})

	// Snapshot socket counts mid-punch: start the punch and sample at
	// the first instant both dials are outstanding.
	var rows [][]string
	var midConns, midPorts int
	p.b.InboundTCP = punch.TCPCallbacks{}
	var sa *punch.TCPSession
	p.a.ConnectTCP("bob", punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sa = s }})
	// Sample 50ms in: the connection details have arrived (two core
	// hops) and both outgoing attempts are in flight, but nothing has
	// established yet.
	p.Net.Sched.After(50*time.Millisecond, func() {
		midConns = p.A.TCPConnCount()
		midPorts = p.A.TCPBoundPorts()
	})
	p.await(60*time.Second, func() bool { return sa != nil })

	// Attempting the same layout without the reuse flag fails.
	_, errNoReuse := p.A.TCPListen(5555, false, nil)
	must(errNoReuse)
	_, errSecond := p.A.TCPDial(inet.EP("18.181.0.31", 1234), host.DialOpts{LocalPort: 5555}, tcpErrCBDiscard())

	rows = append(rows,
		[]string{"sockets on A during punch", fmt.Sprint(midConns), "S conn + 2 outgoing attempts (Figure 7)"},
		[]string{"distinct local TCP ports on A", fmt.Sprint(midPorts), "all sockets share port 4321 + listener"},
		[]string{"second bind without SO_REUSEADDR", errString(errSecond), "§4.1: must fail"},
	)
	return Result{
		ID:    "E8",
		Title: "Figure 7 — sockets versus ports for TCP hole punching",
		Table: table([]string{"measurement", "value", "interpretation"}, rows),
		Notes: []string{"the working session came via " + describeSession(sa)},
		Metrics: map[string]float64{
			"sockets_mid_punch": float64(midConns),
			"ports_mid_punch":   float64(midPorts),
		},
	}
}

// Fig8NATCheckTrace walks through NAT Check's UDP method on a single
// well-behaved NAT, printing the packet trace of Figure 8 alongside
// the resulting report.
func Fig8NATCheckTrace(seed int64) Result {
	in := topo.NewInternet(seed)
	core := in.CoreRealm()
	s1 := core.AddHost("s1", "18.181.0.31", host.BSDStyle)
	s2 := core.AddHost("s2", "18.181.0.32", host.BSDStyle)
	s3 := core.AddHost("s3", "18.181.0.33", host.BSDStyle)
	sv, err := natcheck.NewServers(s1, s2, s3)
	must(err)
	realm := core.AddSite("NAT", nat.WellBehaved(), "155.99.25.11", "10.0.0.0/24")
	client := realm.AddHost("C", "10.0.0.1", host.BSDStyle)

	rec := trace.Attach(in.Net, 64)
	rec.Filter = func(kind sim.HookKind, seg *sim.Segment, ifc *sim.Iface, pkt *inet.Packet) bool {
		return pkt.Proto == inet.UDP && kind == sim.HookDeliver
	}
	var report natcheck.Report
	must(natcheck.Run(client, sv, 4321, func(r natcheck.Report) { report = r }))
	in.RunFor(natcheck.CheckDuration + 10e9)
	rec.Detach()

	rows := [][]string{
		{"consistent translation", boolStr(report.UDPConsistent, "yes", "no"), report.UDPPublic1.String()},
		{"filters unsolicited", boolStr(report.UDPFilters, "yes", "no"), "server 3's reply " + boolStr(report.UDPFilters, "blocked", "delivered")},
		{"hairpin", boolStr(report.UDPHairpin, "yes", "no"), "second-socket probe " + boolStr(report.UDPHairpin, "looped back", "lost")},
	}
	return Result{
		ID:    "E9",
		Title: "Figure 8 — NAT Check method for UDP (single well-behaved NAT)",
		Table: table([]string{"check", "result", "evidence"}, rows) + "\npacket trace (UDP deliveries):\n" + rec.Dump(),
		Metrics: map[string]float64{
			"consistent": boolMetric(report.UDPConsistent),
			"hairpin":    boolMetric(report.UDPHairpin),
		},
	}
}

// --- small helpers used by the figure drivers ---

func boolStr(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func errString(err error) string {
	if err == nil {
		return "succeeded"
	}
	return err.Error()
}

func describeSession(s *punch.TCPSession) string {
	if s == nil {
		return "no session"
	}
	return fmt.Sprintf("%s (accepted=%v)", s.Via, s.Accepted)
}

func await(in *topo.Internet, window time.Duration, cond func() bool) bool {
	deadline := in.Net.Sched.Now() + window
	in.Net.Sched.RunWhile(func() bool { return !cond() && in.Net.Sched.Now() < deadline })
	return cond()
}

func hostDialOpts() host.DialOpts { return host.DialOpts{} }

func tcpErrCB(flag *bool) tcp.Callbacks {
	return tcp.Callbacks{Error: func(_ *tcp.Conn, err error) { *flag = true }}
}

func tcpErrCBDiscard() tcp.Callbacks { return tcp.Callbacks{} }

func rendezvousNew(s *host.Host) (*rendezvous.Server, error) {
	return rendezvous.New(s, serverPort, 0)
}
