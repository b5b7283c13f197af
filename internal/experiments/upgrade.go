package experiments

import (
	"fmt"
	"time"

	"natpunch/internal/fleet"
	"natpunch/internal/punch"
)

// upgradeScenarios is the standing E-UPGRADE workload: a stable
// overlay for the headline claims (connect latency ~one relay RTT,
// eventual direct share matching the baseline's direct share), and a
// NAT-rebind churn overlay exercising failback and re-upgrade of
// live sessions. Each cfg is a base shape that the driver runs twice
// from the same derived seed: once with the punch-at-dial engine
// (relay fallback at the negotiation deadline) and once relay-first
// (usable relay session after ~one rendezvous round-trip, direct path
// punched in the background and migrated in live, DCUtR-style).
func upgradeScenarios() []scenario {
	return []scenario{
		{
			name: "steady-48",
			desc: "48 peers, stable paths: connect latency and eventual direct share",
			cfg: fleet.Config{
				Peers:            48,
				Duration:         8 * time.Minute,
				MeanArrival:      500 * time.Millisecond,
				MeanLifetime:     24 * time.Hour,
				MeanConnectEvery: 20 * time.Second,
				AppDataEvery:     5 * time.Second,
			},
		},
		{
			name: "rebind-24",
			desc: "24 peers, NAT tables power-cycled every ~3min: failback and re-upgrade",
			cfg: fleet.Config{
				Peers:            24,
				Duration:         10 * time.Minute,
				MeanArrival:      time.Second,
				MeanLifetime:     time.Hour,
				MeanConnectEvery: 20 * time.Second,
				AppDataEvery:     5 * time.Second,
				MeanRebindEvery:  3 * time.Minute,
				Punch: punch.Config{
					KeepAliveInterval: 5 * time.Second,
					DeadAfter:         15 * time.Second,
					PunchTimeout:      5 * time.Second,
					RepunchEvery:      20 * time.Second,
				},
			},
		},
	}
}

// Upgrade is the E-UPGRADE driver: relay-first connect with live
// direct-path upgrade, differential against the punch-at-dial
// baseline. Each scenario runs both variants from the same derived
// seed so the populations and dial schedules match; runs fan out over
// the worker pool and tables are byte-identical at any width.
func Upgrade(seed int64) Result {
	scenarios := upgradeScenarios()
	// Runs interleave [baseline, relay-first] per scenario; both
	// variants of scenario i share seed+i.
	reports := fanOut(2*len(scenarios), func(i int) fleet.Report {
		cfg := scenarios[i/2].cfg
		cfg.Punch.RelayFirst = i%2 == 1
		return fleet.Run(seed+int64(i/2), cfg)
	})
	return upgradeResult(scenarios, reports)
}

// upgradeResult renders the E-UPGRADE table from finished reports
// (reports[2i] = scenario i baseline, reports[2i+1] = relay-first).
// Pure (no simulation), so the golden-file tests can pin the row
// layout against hand-built reports.
func upgradeResult(scenarios []scenario, reports []fleet.Report) Result {
	header := []string{"scenario", "mode", "NAT pair", "attempts", "direct@est", "relay@est", "upgraded", "eventual direct%"}
	var rows [][]string
	notes := []string{}
	metrics := map[string]float64{}

	for i, sc := range scenarios {
		base, rf := reports[2*i], reports[2*i+1]
		for _, mode := range []struct {
			name string
			rep  *fleet.Report
		}{{"punch-at-dial", &base}, {"relay-first", &rf}} {
			for _, ps := range mode.rep.Pairs {
				rows = append(rows, []string{
					sc.name, mode.name, ps.Pair,
					fmt.Sprintf("%d", ps.Attempts),
					fmt.Sprintf("%d", ps.Direct()),
					fmt.Sprintf("%d", ps.Relay),
					fmt.Sprintf("%d", ps.Upgraded),
					fmt.Sprintf("%.0f%%", ps.EventualDirectPct()),
				})
			}
		}

		baseDirect := base.Direct()
		rfUpgraded := 0
		for _, ps := range rf.Pairs {
			rfUpgraded += ps.Upgraded
		}
		baseP50, rfP50 := base.ConnectQuantile(0.5), rf.ConnectQuantile(0.5)
		notes = append(notes, fmt.Sprintf(
			"%s (%s): connect p50 %s relay-first vs %s punch-at-dial (p90 %s vs %s)",
			sc.name, sc.desc, ms(rfP50), ms(baseP50),
			ms(rf.ConnectQuantile(0.9)), ms(base.ConnectQuantile(0.9))))
		notes = append(notes, fmt.Sprintf(
			"%s relay-first: %d/%d sessions upgraded to direct (p50 %s, p90 %s after establish), %d failbacks, %d re-upgrades, %d NAT rebinds",
			sc.name, rfUpgraded, rf.Relay, ms(rf.UpgradeQuantile(0.5)), ms(rf.UpgradeQuantile(0.9)),
			rf.Failbacks, rf.Upgrades-rfUpgraded, rf.NATRebinds))
		notes = append(notes, fmt.Sprintf(
			"%s eventual direct share: %.0f%% relay-first vs %.0f%% at-establishment baseline — same pair classes punch, only the timing moves",
			sc.name, pct(rfUpgraded, rf.Relay+rf.Failed),
			pct(baseDirect, base.Completed())))

		metrics[sc.name+"_base_connect_p50_ms"] = float64(baseP50) / float64(time.Millisecond)
		metrics[sc.name+"_rf_connect_p50_ms"] = float64(rfP50) / float64(time.Millisecond)
		metrics[sc.name+"_rf_upgrade_p50_ms"] = float64(rf.UpgradeQuantile(0.5)) / float64(time.Millisecond)
		metrics[sc.name+"_base_direct_pct"] = pct(baseDirect, base.Completed())
		metrics[sc.name+"_rf_eventual_direct_pct"] = pct(rfUpgraded, rf.Relay+rf.Failed)
		metrics[sc.name+"_rf_failbacks"] = float64(rf.Failbacks)
		metrics[sc.name+"_rf_upgrades"] = float64(rf.Upgrades)
	}
	metrics["scenarios"] = float64(len(scenarios))

	return Result{
		ID:      "E-UPGRADE",
		Title:   "Relay-first connect with live direct-path upgrade vs punch-at-dial",
		Table:   table(header, rows),
		Notes:   notes,
		Metrics: metrics,
	}
}
