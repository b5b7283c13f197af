package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/natcheck"
	"natpunch/internal/punch"
	"natpunch/internal/topo"
	"natpunch/internal/vendors"
)

// Sec43OSBehaviors forces the asymmetric SYN timing of §4.3 (A's
// first SYN dropped at B's NAT, B's first SYN passing A's already-
// punched NAT) by giving B's LAN extra latency, and reports which API
// call produced the working socket per OS-flavor pair.
func Sec43OSBehaviors(seed int64) Result {
	type combo struct{ a, b host.OSFlavor }
	combos := []combo{
		{host.BSDStyle, host.BSDStyle},
		{host.LinuxStyle, host.LinuxStyle},
		{host.BSDStyle, host.LinuxStyle},
	}
	rows := fanOut(len(combos), func(i int) []string {
		cb := combos[i]
		in := topo.NewInternet(seed)
		core := in.CoreRealm()
		s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
		realmA := core.AddSite("NAT-A", nat.Cone(), "155.99.25.11", "10.0.0.0/24")
		realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
		hostA := realmA.AddHost("A", "10.0.0.1", cb.a)
		hostB := realmB.AddHost("B", "10.1.1.3", cb.b)
		_, a, b := register(in, s, hostA, hostB, punch.Config{}, true)
		// Asymmetric timing: jitter on B's LAN, added after
		// registration, delays the forwarded connection details to B,
		// so B is slower to dial. A's SYN arrives at B's NAT before B
		// has punched its hole and is dropped; B's later SYN finds A's
		// hole open.
		realmB.Seg.SetJitter(120 * time.Millisecond)

		var sa, sb *punch.TCPSession
		b.InboundTCP = punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sb = s }}
		a.ConnectTCP("bob", punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sa = s }})
		await(in, 60*time.Second, func() bool { return sa != nil && sb != nil })

		outcome := func(s *punch.TCPSession) string {
			if s == nil {
				return "none"
			}
			if s.Accepted {
				return "accept()"
			}
			return "connect()"
		}
		return []string{
			cb.a.String() + " / " + cb.b.String(),
			outcome(sa), outcome(sb),
			boolStr(sa != nil && sb != nil, "yes", "no"),
		}
	})
	return Result{
		ID:    "E10",
		Title: "Sec 4.3 — application-visible TCP punching behavior by OS flavor",
		Table: table([]string{"flavors A/B", "A's stream via", "B's stream via", "session works"}, rows),
		Notes: []string{
			"BSD-style stacks complete the connect(); Linux-style stacks deliver via accept() with the connect failing address-in-use — both yield one working stream, which is all the application should care about (§4.3)",
		},
		Metrics: map[string]float64{"combos": float64(len(rows))},
	}
}

// Sec44SimultaneousOpen reproduces §4.4's "lucky" case: symmetric
// timing makes the SYNs cross between the NATs, and both TCP stacks
// go through the simultaneous-open transition.
func Sec44SimultaneousOpen(seed int64) Result {
	flavors := []host.OSFlavor{host.BSDStyle, host.LinuxStyle}
	rows := fanOut(len(flavors), func(i int) []string {
		flavor := flavors[i]
		in := topo.NewInternet(seed)
		core := in.CoreRealm()
		s := core.AddHost("S", "18.181.0.31", host.BSDStyle)
		realmA := core.AddSite("NAT-A", nat.Cone(), "155.99.25.11", "10.0.0.0/24")
		realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
		hostA := realmA.AddHost("A", "10.0.0.1", flavor)
		hostB := realmB.AddHost("B", "10.1.1.3", flavor)
		_, a, b := register(in, s, hostA, hostB, punch.Config{}, true)

		var sa, sb *punch.TCPSession
		b.InboundTCP = punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sb = s }}
		a.ConnectTCP("bob", punch.TCPCallbacks{Established: func(s *punch.TCPSession) { sa = s }})
		await(in, 60*time.Second, func() bool { return sa != nil && sb != nil })

		mode := "failed"
		if sa != nil && sb != nil {
			switch {
			case !sa.Accepted && !sb.Accepted:
				mode = "both connect() (SYNs crossed on the wire)"
			case sa.Accepted && sb.Accepted:
				mode = "both accept() ('stream created itself', §4.4)"
			default:
				mode = "mixed connect()/accept()"
			}
		}
		return []string{flavor.String() + " both", mode}
	})
	return Result{
		ID:      "E11",
		Title:   "Sec 4.4 — simultaneous TCP open under symmetric timing",
		Table:   table([]string{"stack flavor", "observed outcome"}, rows),
		Metrics: map[string]float64{"rows": float64(len(rows))},
	}
}

// Sec45SequentialVsParallel compares the two TCP punching procedures
// for latency and loss robustness (§4.5).
func Sec45SequentialVsParallel(seed int64) Result {
	const trials = 5
	cfgs := []struct {
		name string
		seq  bool
		loss float64
	}{
		{"parallel, clean", false, 0},
		{"sequential, clean", true, 0},
		{"parallel, 10% loss", false, 0.10},
		{"sequential, 10% loss", true, 0.10},
	}
	// Every (procedure, loss, trial-seed) combination is an isolated
	// run; fan all 20 out and fold per-config afterwards.
	outs := fanOut(len(cfgs)*trials, func(i int) tcpOutcome {
		cfg := cfgs[i/trials]
		p := newPair(seed+int64(i%trials), nat.Cone(), nat.Cone(), punch.Config{PunchTimeout: 25 * time.Second}, true)
		if cfg.loss > 0 {
			p.Core.SetLoss(cfg.loss)
		}
		return p.punchTCP(90*time.Second, cfg.seq)
	})
	var rows [][]string
	for ci, cfg := range cfgs {
		ok := 0
		var total time.Duration
		for t := 0; t < trials; t++ {
			out := outs[ci*trials+t]
			if out.ok && out.via == punch.MethodPublic {
				ok++
				total += out.elapsed
			}
		}
		avg := "-"
		if ok > 0 {
			avg = ms(total / time.Duration(ok))
		}
		rows = append(rows, []string{cfg.name, fmt.Sprintf("%d/%d", ok, trials), avg})
	}
	return Result{
		ID:    "E12",
		Title: "Sec 4.5 — sequential (NatTrav) vs parallel TCP hole punching",
		Table: table([]string{"procedure", "success", "avg time-to-stream"}, rows),
		Notes: []string{
			"the sequential procedure pays a fixed hole-opening delay and is 'more timing-dependent' (§4.5); parallel completes as soon as the crossing SYNs land",
			"our sequential variant signals readiness with explicit messages instead of closing the S connections, so S connections remain reusable (documented deviation)",
		},
		Metrics: map[string]float64{"trials_per_row": trials},
	}
}

// Sec36KeepAlives sweeps keep-alive intervals against a short NAT
// idle timeout and measures session survival plus on-demand re-punch
// latency (§3.6).
func Sec36KeepAlives(seed int64) Result {
	const natTimeout = 20 * time.Second
	intervals := []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second, 25 * time.Second, 45 * time.Second}
	rows := fanOut(len(intervals), func(i int) []string {
		iv := intervals[i]
		behA := nat.Cone()
		behA.UDPTimeout = natTimeout
		behB := nat.Cone()
		behB.UDPTimeout = natTimeout
		p := newPair(seed, behA, behB, punch.Config{
			KeepAliveInterval: iv,
			DeadAfter:         3 * iv,
		}, false)
		out := p.punchUDP(30 * time.Second)
		if !out.ok {
			return []string{iv.String(), "punch failed", "-"}
		}
		pubBefore, _ := p.NATA.PublicEndpointFor(inet.UDP, p.a.PrivateUDP(), p.b.PublicUDP())
		// Idle for five minutes with only keep-alives flowing.
		p.RunFor(5 * time.Minute)
		pubAfter, alive := p.NATA.PublicEndpointFor(inet.UDP, p.a.PrivateUDP(), p.b.PublicUDP())
		// The hole survived only if the *same* public endpoint is
		// still mapped; a keep-alive through an expired mapping
		// allocates a fresh endpoint the peer knows nothing about.
		preserved := alive && pubAfter == pubBefore
		natState := "expired (no mapping)"
		if preserved {
			natState = "original mapping alive"
		} else if alive {
			natState = "re-created at " + pubAfter.String()
		}
		return []string{
			iv.String(),
			natState,
			boolStr(preserved, "usable", "dead (re-punch needed)"),
		}
	})
	return Result{
		ID:    "E13",
		Title: "Sec 3.6 — keep-alive interval vs a 20s NAT idle timeout",
		Table: table([]string{"keep-alive interval", "NAT state after 5min idle", "session"}, rows),
		Notes: []string{
			"intervals below the NAT timeout preserve the mapping; above it the session dies and the application must re-run hole punching on demand (§3.6)",
		},
		Metrics: map[string]float64{"nat_timeout_s": natTimeout.Seconds()},
	}
}

// Sec51PortPrediction implements the §5.1 prediction variant over a
// sequential-allocating symmetric NAT ("variants of hole punching
// algorithms can be made to work much of the time over symmetric NATs
// by ... using the resulting information to predict the public port
// number the NAT will assign to a new session"). The paper warns that
// prediction "amounts to chasing a moving target"; the grid quantifies
// that fragility under competing-session interference.
func Sec51PortPrediction(seed int64) Result {
	// run performs one predicted punch. interference is the number of
	// unrelated sessions another inside client opens between probing
	// and punching; window is how many consecutive predicted ports the
	// peer sprays.
	run := func(interference, window int) bool {
		in := topo.NewInternet(seed)
		core := in.CoreRealm()
		sv, err := natcheck.NewServers(
			core.AddHost("s1", "18.181.0.31", host.BSDStyle),
			core.AddHost("s2", "18.181.0.32", host.BSDStyle),
			core.AddHost("s3", "18.181.0.33", host.BSDStyle))
		must(err)

		realmA := core.AddSite("NAT-A", nat.Symmetric(), "155.99.25.11", "10.0.0.0/24")
		realmB := core.AddSite("NAT-B", nat.Cone(), "138.76.29.7", "10.1.1.0/24")
		hostA := realmA.AddHost("A", "10.0.0.1", host.BSDStyle)
		rival := realmA.AddHost("rival", "10.0.0.2", host.BSDStyle)
		hostB := realmB.AddHost("B", "10.1.1.3", host.BSDStyle)

		// Step 1: A probes its NAT from two servers (NAT Check's UDP
		// phase). Different mappings mean symmetric; their port
		// difference is the allocation stride.
		var res natcheck.Report
		gotRes := false
		must(natcheck.RunUDP(hostA, sv, 4000, func(r natcheck.Report) {
			res, gotRes = r, true
		}))
		await(in, 10*time.Second, func() bool { return gotRes })
		stride := int(res.UDPPublic2.Port) - int(res.UDPPublic1.Port)
		if !res.UDPResponded || res.UDPConsistent || stride <= 0 {
			return false
		}
		// The k-th session after the probe is expected at the last
		// observed mapping plus stride*k.
		predict := func(k int) inet.Endpoint {
			return inet.Endpoint{Addr: res.UDPPublic2.Addr, Port: res.UDPPublic2.Port + inet.Port(stride*k)}
		}

		// Step 2: interference — another client behind the same NAT
		// grabs mappings, advancing the allocator.
		rs, err := rival.UDPBind(500)
		must(err)
		for i := 0; i < interference; i++ {
			rs.SendTo(inet.Endpoint{Addr: inet.MustParseAddr("18.181.0.31"), Port: inet.Port(6000 + i)}, []byte("noise"))
		}
		in.RunFor(time.Second)

		// Step 3: B opens its socket; both sides punch. B knows A's
		// predicted endpoints for k in 1..window.
		sa, err := hostA.UDPBind(4321)
		must(err)
		sb, err := hostB.UDPBind(4321)
		must(err)
		established := false
		sa.OnRecv(func(from inet.Endpoint, p []byte) {
			if string(p) == "punch-b" {
				sa.SendTo(from, []byte("punch-ack"))
			}
		})
		sb.OnRecv(func(from inet.Endpoint, p []byte) {
			if string(p) == "punch-ack" {
				established = true
			}
		})

		// B sprays A's predicted ports (opening B's hole and its
		// mapping), A punches to B's public endpoint, read from B's
		// NAT, and B sprays again now that A's new mapping exists at
		// some predicted port.
		spray := func() {
			for k := 1; k <= window; k++ {
				sb.SendTo(predict(k), []byte("punch-b"))
			}
		}
		spray()
		in.RunFor(200 * time.Millisecond)
		bPubActual, okB := realmB.NAT.PublicEndpointFor(inet.UDP, sb.Local(), predict(1))
		if !okB {
			return false
		}
		sa.SendTo(bPubActual, []byte("punch-a")) // creates A's next mapping
		in.RunFor(200 * time.Millisecond)
		spray() // B re-sprays now that A's mapping exists
		await(in, 10*time.Second, func() bool { return established })
		return established
	}

	windows := []int{1, 3}
	interferences := []int{0, 1, 2, 5}
	// The prediction grid plus the no-prediction baseline are all
	// independent runs; the baseline rides along as the last slot.
	type predRun struct {
		ok       bool
		baseline udpOutcome
	}
	grid := len(windows) * len(interferences)
	outs := fanOut(grid+1, func(i int) predRun {
		if i == grid {
			basic := newPair(seed, nat.Symmetric(), nat.Cone(), punch.Config{PunchTimeout: 5 * time.Second}, false)
			return predRun{baseline: basic.punchUDP(20 * time.Second)}
		}
		window := windows[i/len(interferences)]
		interference := interferences[i%len(interferences)]
		return predRun{ok: run(interference, window)}
	})
	var rows [][]string
	for i := 0; i < grid; i++ {
		window := windows[i/len(interferences)]
		interference := interferences[i%len(interferences)]
		rows = append(rows, []string{
			fmt.Sprint(interference), fmt.Sprint(window), boolStr(outs[i].ok, "established", "failed"),
		})
	}
	basicOut := outs[grid].baseline
	return Result{
		ID:    "E14",
		Title: "Sec 5.1 — port prediction against a sequential symmetric NAT",
		Table: table([]string{"competing sessions", "spray window", "outcome"}, rows),
		Notes: []string{
			"baseline (no prediction): " + boolStr(basicOut.ok, "established (unexpected!)", "failed — symmetric NAT defeats basic punching"),
			"established exactly when the competing sessions are fewer than the spray window: each one moves A's next mapping a port further from the prediction — §5.1's 'chasing a moving target'",
		},
		Metrics: map[string]float64{"baseline_ok": boolMetric(basicOut.ok)},
	}
}

// Sec52RSTvsDrop measures TCP punch latency and success under the
// three unsolicited-SYN refusal modes (§5.2).
func Sec52RSTvsDrop(seed int64) Result {
	modes := []struct {
		name string
		beh  func() nat.Behavior
	}{
		{"drop / drop (well-behaved)", nat.Cone},
		{"rst / rst", nat.RSTCone},
		{"icmp / icmp", func() nat.Behavior {
			b := nat.Cone()
			b.TCPRefusal = nat.RefuseICMP
			return b
		}},
		{"rst / drop (mixed)", nat.RSTCone},
	}
	rows := fanOut(len(modes), func(i int) []string {
		mode := modes[i]
		behB := mode.beh()
		if mode.name == "rst / drop (mixed)" {
			behB = nat.Cone()
		}
		p := newPair(seed, mode.beh(), behB, punch.Config{PunchTimeout: 30 * time.Second}, true)
		// Slow B's LAN so A's first SYN reaches B's NAT before B has
		// punched its own hole — the unsolicited-SYN case the refusal
		// policy governs (§5.2). With symmetric timing the SYNs cross
		// and no NAT ever sees an unsolicited SYN.
		p.RealmB.Seg.SetLatency(120 * time.Millisecond)
		out := p.punchTCP(90*time.Second, false)
		return []string{
			mode.name,
			boolStr(out.ok, "established", "failed"),
			ms(out.elapsed),
			fmt.Sprint(p.NATA.Stats().RSTsSent + p.NATB.Stats().RSTsSent),
		}
	})
	return Result{
		ID:    "E15",
		Title: "Sec 5.2 — unsolicited-SYN refusal mode vs TCP punch latency",
		Table: table([]string{"refusal A / B", "outcome", "time-to-stream", "RSTs sent by NATs"}, rows),
		Notes: []string{
			"§5.2: active rejection is 'not necessarily fatal' — retries recover — 'but the resulting transient errors can make hole punching take longer'",
			"latency parity here is the parallel procedure's listener at work: when the RST kills A's connect, B's later SYN still lands on A's listen socket; only the RST counter betrays the hostile NAT",
		},
		Metrics: map[string]float64{},
	}
}

// Sec53Mangling shows what a payload-rewriting NAT does to the
// registration's private endpoint and how obfuscation protects it
// (§3.1, §5.3).
func Sec53Mangling(seed int64) Result {
	// Bob connects to alice: what S recorded as alice's private
	// endpoint is what bob is told to punch.
	outs := fanOut(2, func(i int) udpOutcome {
		c := topo.NewCommonNAT(seed, nat.Mangler())
		cfg := punch.Config{Obfuscate: i == 1, PunchTimeout: 5 * time.Second}
		_, _, b := register(c.Internet, c.S, c.A, c.B, cfg, false)
		return punchFrom(c.Internet, b, "alice", 30*time.Second)
	})
	plainOK, obfOK, obfVia := outs[0].ok, outs[1].ok, outs[1].via
	mangled := mangledEndpointDemo(seed)
	rows := [][]string{
		{"plain encoding", boolStr(plainOK, "established", "failed"), "S recorded private EP as " + mangled},
		{"obfuscated (one's complement)", boolStr(obfOK, "established via "+obfVia.String(), "failed"), "private EP intact"},
	}
	return Result{
		ID:    "E16",
		Title: "Sec 5.3 — blind payload mangling vs address obfuscation (common mangler NAT, no hairpin)",
		Table: table([]string{"encoding", "punch outcome", "registration effect"}, rows),
		Notes: []string{
			"the mangler rewrites the 4-byte private address in the registration body into the public address, so the exchanged private endpoints are useless; behind a common NAT without hairpin they were the only viable path (§3.3)",
		},
		Metrics: map[string]float64{"plain_ok": boolMetric(plainOK), "obfuscated_ok": boolMetric(obfOK)},
	}
}

// mangledEndpointDemo computes what the mangler turns 10.0.0.1 into
// behind the common NAT's public address, for the table text.
func mangledEndpointDemo(seed int64) string {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(inet.MustParseAddr("155.99.25.11")))
	return fmt.Sprintf("%d.%d.%d.%d:4321 (the NAT's public address)", buf[0], buf[1], buf[2], buf[3])
}

// ConnectorAggregate samples NAT pairs from the Table 1 population
// and reports the method distribution an ICE-style connector
// achieves: direct private, punched public, or relayed (§2.2+§3).
func ConnectorAggregate(seed int64) Result {
	devices := []vendors.Device{}
	for _, row := range vendors.Table1 {
		devs := vendors.Devices(row)
		// take a spread: first, middle, last device of each vendor
		devices = append(devices, devs[0], devs[len(devs)/2], devs[len(devs)-1])
	}
	// Each sampled device pair punches in its own isolated sim.
	var pairs [][2]vendors.Device
	var pairSeeds []int64
	for i := 0; i+1 < len(devices); i += 2 {
		pairs = append(pairs, [2]vendors.Device{devices[i], devices[i+1]})
		pairSeeds = append(pairSeeds, seed+int64(i))
	}
	outs := fanOut(len(pairs), func(i int) udpOutcome {
		p := newPair(pairSeeds[i], pairs[i][0].Behavior, pairs[i][1].Behavior, punch.Config{
			PunchTimeout:  5 * time.Second,
			RelayFallback: true,
		}, false)
		return p.punchUDP(30 * time.Second)
	})
	counts := map[punch.Method]int{}
	total := len(outs)
	for _, out := range outs {
		if out.ok {
			counts[out.via]++
		} else {
			counts[punch.MethodNone]++
		}
	}
	var rows [][]string
	for _, m := range []punch.Method{punch.MethodPublic, punch.MethodPrivate, punch.MethodRelay, punch.MethodNone} {
		rows = append(rows, []string{m.String(), fmt.Sprintf("%d/%d", counts[m], total),
			fmt.Sprintf("%.0f%%", 100*float64(counts[m])/float64(total))})
	}
	return Result{
		ID:    "E17",
		Title: "Aggregate — connector method distribution over sampled Table 1 device pairs",
		Table: table([]string{"method", "pairs", "share"}, rows),
		Notes: []string{
			"with relay fallback enabled overall connectivity is 100%: punching where both NATs translate consistently, relaying otherwise (§2.2)",
		},
		Metrics: map[string]float64{
			"pairs":   float64(total),
			"punched": float64(counts[punch.MethodPublic] + counts[punch.MethodPrivate]),
			"relayed": float64(counts[punch.MethodRelay]),
		},
	}
}
