package experiments

import (
	"fmt"
	"time"

	"natpunch/internal/fleet"
)

// fedScenarios is the standing E-FED workload: the same steady
// population sharded over 1, 2, and 4 federated servers (load skew +
// outcome-class equivalence), and a 2-server run that loses one
// server mid-run (failover).
func fedScenarios() []scenario {
	steady := func(servers int) fleet.Config {
		return fleet.Config{
			Peers:            60,
			Servers:          servers,
			Duration:         6 * time.Minute,
			MeanArrival:      500 * time.Millisecond,
			MeanLifetime:     24 * time.Hour,
			MeanConnectEvery: 20 * time.Second,
		}
	}
	kill := fleet.Config{
		Peers:            40,
		Servers:          2,
		Duration:         12 * time.Minute,
		MeanArrival:      500 * time.Millisecond,
		MeanLifetime:     24 * time.Hour,
		MeanConnectEvery: 20 * time.Second,
		KillServerAt:     5 * time.Minute,
	}
	return []scenario{
		{"fed-1", "60 peers, 1 server (monolithic baseline)", steady(1)},
		{"fed-2", "60 peers sharded over 2 federated servers", steady(2)},
		{"fed-4", "60 peers sharded over 4 federated servers", steady(4)},
		{"fed-kill", "40 peers, 2 servers; server 0 killed at 5m", kill},
	}
}

// Federation is the E-FED driver: federated rendezvous deployments at
// increasing tier widths plus a mid-run server loss. Each scenario is
// an isolated (seed, config) run fanned out over the worker pool;
// tables are byte-identical at any width.
func Federation(seed int64) Result {
	scenarios := fedScenarios()
	reports := fanOut(len(scenarios), func(i int) fleet.Report {
		// The three steady scenarios share one seed: the population
		// draw (NAT mix, sites, arrival schedule) is then identical, so
		// differences between fed-1/2/4 isolate the tier width.
		s := seed
		if scenarios[i].cfg.KillServerAt > 0 {
			s = seed + 1
		}
		return fleet.Run(s, scenarios[i].cfg)
	})
	return fedResult(scenarios, reports)
}

// fedResult renders the E-FED table from finished reports. Pure (no
// simulation), so golden tests can pin the layout.
func fedResult(scenarios []scenario, reports []fleet.Report) Result {
	header := []string{"scenario", "server", "homed", "regs", "connect+negotiate", "relayed msgs", "fed records", "fed forwards"}
	var rows [][]string
	notes := []string{}
	metrics := map[string]float64{}

	for i, sc := range scenarios {
		rep := reports[i]
		for _, sl := range rep.PerServer {
			rows = append(rows, []string{
				sc.name,
				fmt.Sprintf("S%d", sl.Index),
				fmt.Sprintf("%d", sl.Homed),
				fmt.Sprintf("%d", sl.Stats.RegistrationsUDP),
				fmt.Sprintf("%d", sl.Stats.ConnectRequests+sl.Stats.NegotiateRequests),
				fmt.Sprintf("%d", sl.Stats.RelayedMessages),
				fmt.Sprintf("%d", sl.Stats.FedRecords),
				fmt.Sprintf("%d", sl.Stats.FedForwards),
			})
		}
		direct := rep.Direct()
		notes = append(notes, fmt.Sprintf(
			"%s (%s): %d attempts, %.0f%% direct, %.0f%% relayed, %d failovers, %d pre-kill direct deaths",
			sc.name, sc.desc, rep.Attempts,
			pct(direct, rep.Completed()),
			pct(rep.Relay, rep.Completed()),
			rep.Failovers, rep.PreKillDirectDeaths))
		metrics[sc.name+"_attempts"] = float64(rep.Attempts)
		metrics[sc.name+"_direct_pct"] = pct(direct, rep.Completed())
		metrics[sc.name+"_failovers"] = float64(rep.Failovers)
		metrics[sc.name+"_prekill_direct_deaths"] = float64(rep.PreKillDirectDeaths)
		if len(rep.PerServer) > 1 {
			lo, hi := rep.PerServer[0].Homed, rep.PerServer[0].Homed
			for _, sl := range rep.PerServer[1:] {
				if sl.Homed < lo {
					lo = sl.Homed
				}
				if sl.Homed > hi {
					hi = sl.Homed
				}
			}
			metrics[sc.name+"_homed_skew"] = float64(hi) / float64(max(lo, 1))
		}
	}
	notes = append(notes,
		"outcome classes must match the fed-1 baseline at every tier width: stable hashing only moves *where* a pair is brokered, never whether it punches",
		"fed-kill: direct sessions established before the kill are peer-to-peer and survive it (pre-kill direct deaths 0); clients homed on the dead server re-home down their preference order on the §3.6 keep-alive clock")
	metrics["scenarios"] = float64(len(scenarios))

	return Result{
		ID:      "E-FED",
		Title:   "Federation: sharded rendezvous tier, load skew, and mid-run server loss",
		Table:   table(header, rows),
		Notes:   notes,
		Metrics: metrics,
	}
}
