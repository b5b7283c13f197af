package experiments

import (
	"fmt"
	"time"

	"natpunch/internal/fleet"
	"natpunch/internal/ice"
	"natpunch/internal/nat"
)

// iceScenarios is the standing E-ICE workload: a heterogeneous
// headline mix, then isolating runs for each topology class
// (Figure 4 shared sites, Figure 6 CGNs with and without hairpin),
// and candidate-type ablations that knock out exactly the path each
// topology depends on.
func iceScenarios() []scenario {
	stable := func(peers int, dur time.Duration) fleet.Config {
		return fleet.Config{
			Peers:            peers,
			Duration:         dur,
			MeanArrival:      500 * time.Millisecond,
			MeanLifetime:     24 * time.Hour,
			MeanConnectEvery: 20 * time.Second,
		}
	}
	coneMix := []fleet.Weighted{{Label: "cone", Behavior: nat.Cone(), Weight: 1}}
	cgnMix := []fleet.Weighted{
		{Label: "cone", Behavior: nat.Cone(), Weight: 1},
		{Label: "symmetric-open", Behavior: nat.SymmetricOpen(), Weight: 1},
	}
	shared := []fleet.SiteShape{{Label: "household-4", Kind: fleet.SiteShared, Hosts: 4, Weight: 1}}
	cgnHairpin := []fleet.SiteShape{{Label: "cgn-hairpin", Kind: fleet.SiteCGN, Hosts: 4, CGN: nat.WellBehaved(), Weight: 1}}
	cgnPlain := []fleet.SiteShape{{Label: "cgn-plain", Kind: fleet.SiteCGN, Hosts: 4, CGN: nat.Cone(), Weight: 1}}

	mix := stable(48, 5*time.Minute)
	mix.Topology = fleet.Heterogeneous()

	sharedCone := stable(32, 4*time.Minute)
	sharedCone.Mix, sharedCone.Topology = coneMix, shared

	hairpinRun := stable(32, 4*time.Minute)
	hairpinRun.Mix, hairpinRun.Topology = cgnMix, cgnHairpin

	plainRun := stable(32, 4*time.Minute)
	plainRun.Mix, plainRun.Topology = cgnMix, cgnPlain

	symOpenCGN := stable(16, 4*time.Minute)
	symOpenCGN.Mix = []fleet.Weighted{{Label: "symmetric-open", Behavior: nat.SymmetricOpen(), Weight: 1}}
	symOpenCGN.Topology = []fleet.SiteShape{{Label: "cgn-hairpin-16", Kind: fleet.SiteCGN, Hosts: 16, CGN: nat.WellBehaved(), Weight: 1}}

	noPriv := sharedCone
	noPriv.Punch.ICE = ice.Config{NoPrivate: true}

	noHair := hairpinRun
	noHair.Punch.ICE = ice.Config{NoHairpin: true}

	return []scenario{
		{"mix-48", "heterogeneous sites (flat + shared + CGN), Table 1 NAT mix", mix},
		{"shared-32", "Fig 4: four-peer households behind hairpin-less cone NATs", sharedCone},
		{"cgn-hairpin-32", "Fig 6: cone + symmetric-open homes under hairpinning CGNs", hairpinRun},
		{"cgn-plain-32", "Fig 6 without hairpin support at the CGN", plainRun},
		{"cgn-symopen-16", "one hairpinning CGN, all-symmetric-open homes: every pair is same-cgn sym<->sym", symOpenCGN},
		{"shared-nopriv-32", "ablation: shared-32 with private candidates disabled", noPriv},
		{"cgn-nohair-32", "ablation: cgn-hairpin-32 with hairpin candidates disabled", noHair},
	}
}

// ICECandidates is the E-ICE driver: candidate negotiation over
// heterogeneous fleet topologies, ablating candidate types, with
// outcomes attributed to (topology class × nominated candidate
// type). Each scenario is an isolated (seed, config) run fanned out
// over the worker pool; tables are byte-identical at any width.
func ICECandidates(seed int64) Result {
	scenarios := iceScenarios()
	reports := fanOut(len(scenarios), func(i int) fleet.Report {
		return fleet.Run(seed+int64(i), scenarios[i].cfg)
	})
	return iceResult(scenarios, reports)
}

// iceResult renders the E-ICE table from finished reports. Pure (no
// simulation), so the golden-file tests can pin the row layout
// against hand-built reports.
func iceResult(scenarios []scenario, reports []fleet.Report) Result {
	header := []string{"scenario", "topology", "attempts", "private", "public", "hairpin", "reflex", "relay", "failed", "abandoned", "direct%", "p50"}
	var rows [][]string
	notes := []string{}
	metrics := map[string]float64{}

	var totAttempts, totDirect, totRelay int
	for i, sc := range scenarios {
		rep := reports[i]
		for _, ts := range rep.Topos {
			p50 := "-"
			if n := len(ts.Times); n > 0 {
				p50 = ms(ts.Times[int(0.5*float64(n-1))])
			}
			rows = append(rows, []string{
				sc.name, ts.Topo,
				fmt.Sprintf("%d", ts.Attempts),
				fmt.Sprintf("%d", ts.Private),
				fmt.Sprintf("%d", ts.Public),
				fmt.Sprintf("%d", ts.Hairpin),
				fmt.Sprintf("%d", ts.Reflexive),
				fmt.Sprintf("%d", ts.Relay),
				fmt.Sprintf("%d", ts.Failed),
				fmt.Sprintf("%d", ts.Abandoned),
				fmt.Sprintf("%.0f%%", ts.DirectPct()),
				p50,
			})
			metrics[sc.name+"_"+ts.Topo+"_direct_pct"] = ts.DirectPct()
		}
		direct := rep.Direct()
		totAttempts += rep.Attempts
		totDirect += direct
		totRelay += rep.Relay
		notes = append(notes, fmt.Sprintf(
			"%s (%s): %d negotiations, %d relayed msgs; outcome mix private/public/hairpin/reflex/relay = %d/%d/%d/%d/%d",
			sc.name, sc.desc, rep.Server.NegotiateRequests, rep.Server.RelayedMessages,
			rep.Private, rep.Public, rep.Hairpin, rep.Reflexive, rep.Relay))
		if ss := rep.Pair("symmetric<->symmetric"); ss != nil && ss.Attempts > 0 {
			notes = append(notes, fmt.Sprintf(
				"%s symmetric<->symmetric pairs: %d attempts, %d direct (%d hairpin), %d relay",
				sc.name, ss.Attempts, ss.Direct(), ss.Hairpin, ss.Relay))
			metrics[sc.name+"_symsym_hairpin"] = float64(ss.Hairpin)
			metrics[sc.name+"_symsym_relay"] = float64(ss.Relay)
		}
		metrics[sc.name+"_direct_pct"] = pct(direct, rep.Completed())
	}
	notes = append(notes,
		"same-site pairs ride private candidates (§3.3); same-cgn pairs need the hairpin candidate (§3.5) — ablate either and those classes fall to the relay floor (§2.2)",
		"symmetric-open homes punch through hairpinning CGNs via triggered peer-reflexive checks (§5.1): mapping behavior alone does not doom a pair; filtering does")
	metrics["scenarios"] = float64(len(scenarios))
	metrics["total_attempts"] = float64(totAttempts)
	metrics["total_direct_pct"] = pct(totDirect, totAttempts)
	metrics["total_relay_pct"] = pct(totRelay, totAttempts)

	return Result{
		ID:      "E-ICE",
		Title:   "ICE: candidate negotiation across heterogeneous fleet topologies",
		Table:   table(header, rows),
		Notes:   notes,
		Metrics: metrics,
	}
}
