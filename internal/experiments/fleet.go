package experiments

import (
	"fmt"
	"time"

	"natpunch/internal/fleet"
)

// scenario is one independent fleet run of a fleet-backed experiment
// (E-FLEET, E-ICE, E-FED, E-UPGRADE). Each scenario builds its own
// sim.Network from its own derived seed, so the set fans out across
// the worker pool like any other experiment workload.
type scenario struct {
	name string
	desc string
	cfg  fleet.Config
}

// fleetScenarios is the standing E-FLEET workload: a stable overlay
// (pure punch-success measurement over the Table 1 mix), a churning
// overlay (arrivals, departures, rejoins, idle session death and
// re-punch), and a flash crowd (the whole population arrives in
// seconds and immediately starts dialing).
func fleetScenarios() []scenario {
	return []scenario{
		{
			name: "steady-80",
			desc: "80 peers, no churn: pure pairwise punch outcomes",
			cfg: fleet.Config{
				Peers:            80,
				Duration:         6 * time.Minute,
				MeanArrival:      500 * time.Millisecond,
				MeanLifetime:     24 * time.Hour,
				MeanConnectEvery: 25 * time.Second,
			},
		},
		{
			name: "churn-120",
			desc: "120 peers, 100s mean lifetime, rejoin after 40s",
			cfg: fleet.Config{
				Peers:            120,
				Duration:         10 * time.Minute,
				MeanArrival:      time.Second,
				MeanLifetime:     100 * time.Second,
				MeanRejoin:       40 * time.Second,
				MeanConnectEvery: 20 * time.Second,
			},
		},
		{
			name: "flash-200",
			desc: "200 peers arriving within ~10s, dialing aggressively",
			cfg: fleet.Config{
				Peers:            200,
				Duration:         4 * time.Minute,
				MeanArrival:      50 * time.Millisecond,
				MeanLifetime:     24 * time.Hour,
				MeanConnectEvery: 15 * time.Second,
				PublicFraction:   0.1,
			},
		},
	}
}

// FleetChurn is the E-FLEET driver: population-scale churn
// simulations over the Table 1 NAT mix, reporting punch outcomes by
// NAT-pair class plus fleet-level load. Each scenario is an isolated
// (seed, config) run fanned out over the worker pool; tables are
// byte-identical at any width.
func FleetChurn(seed int64) Result {
	scenarios := fleetScenarios()
	reports := fanOut(len(scenarios), func(i int) fleet.Report {
		return fleet.Run(seed+int64(i), scenarios[i].cfg)
	})
	return fleetResult(scenarios, reports)
}

// fleetResult renders the E-FLEET table from finished reports. Pure
// (no simulation), so the golden-file tests can pin the row layout
// against hand-built reports.
func fleetResult(scenarios []scenario, reports []fleet.Report) Result {
	header := []string{"scenario", "NAT pair", "attempts", "direct", "relay", "failed", "abandoned", "direct%", "p50", "p90"}
	var rows [][]string
	notes := []string{}
	metrics := map[string]float64{}

	var totAttempts, totDirect, totRelay int
	for i, sc := range scenarios {
		rep := reports[i]
		for _, ps := range rep.Pairs {
			p50, p90 := "-", "-"
			if n := len(ps.Times); n > 0 {
				// Same rank formula as Report.Quantile, so the table
				// and the metrics map agree on every quantile.
				p50 = ms(ps.Times[int(0.5*float64(n-1))])
				p90 = ms(ps.Times[int(0.9*float64(n-1))])
			}
			rows = append(rows, []string{
				sc.name, ps.Pair,
				fmt.Sprintf("%d", ps.Attempts),
				fmt.Sprintf("%d", ps.Direct()),
				fmt.Sprintf("%d", ps.Relay),
				fmt.Sprintf("%d", ps.Failed),
				fmt.Sprintf("%d", ps.Abandoned),
				fmt.Sprintf("%.0f%%", ps.DirectPct()),
				p50, p90,
			})
		}
		direct := rep.Direct()
		totAttempts += rep.Attempts
		totDirect += direct
		totRelay += rep.Relay
		notes = append(notes, fmt.Sprintf(
			"%s (%s): peak online %d, peak sessions %d, churn %d/%d/%d arrive/depart/rejoin, %d dead sessions, %d re-punches",
			sc.name, sc.desc, rep.PeakOnline, rep.PeakSessions,
			rep.Arrivals, rep.Departures, rep.Rejoins, rep.DeadSessions, rep.Repunches))
		notes = append(notes, fmt.Sprintf(
			"%s server load: %d connect/negotiate requests, %d relayed msgs (%dB); fabric %d packets; %d sim events",
			sc.name, rep.Server.ConnectRequests+rep.Server.NegotiateRequests,
			rep.Server.RelayedMessages, rep.Server.RelayedBytes, rep.Fabric.Sent, rep.Events))
		metrics[sc.name+"_attempts"] = float64(rep.Attempts)
		metrics[sc.name+"_direct_pct"] = pct(direct, rep.Completed())
		metrics[sc.name+"_peak_sessions"] = float64(rep.PeakSessions)
		metrics[sc.name+"_relayed_msgs"] = float64(rep.Server.RelayedMessages)
		metrics[sc.name+"_p50_ms"] = float64(rep.Quantile(0.5)) / float64(time.Millisecond)
	}
	notes = append(notes, fmt.Sprintf(
		"overall: %d attempts, %.0f%% direct, %.0f%% relayed — the Table 1 mix (82%% cone) predicts ~%.0f%% of pairs can punch (both ends cone)",
		totAttempts, pct(totDirect, totAttempts), pct(totRelay, totAttempts), 0.8158*0.8158*100))
	metrics["scenarios"] = float64(len(scenarios))
	metrics["total_attempts"] = float64(totAttempts)
	metrics["total_direct_pct"] = pct(totDirect, totAttempts)

	return Result{
		ID:      "E-FLEET",
		Title:   "Fleet: population-scale churn over the Table 1 NAT mix",
		Table:   table(header, rows),
		Notes:   notes,
		Metrics: metrics,
	}
}

// pct is a safe percentage.
func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}
