package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"natpunch/internal/fleet"
	"natpunch/internal/rendezvous"
	"natpunch/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The golden tests pin the *rendering* of the fleet-backed experiment
// tables — column set, order, alignment, note layout — against
// hand-built reports, so a runner or aggregation change that reorders
// rows or renames columns fails loudly instead of silently shifting
// EXPERIMENTS.md. The inputs are synthetic (no simulation runs): the
// goldens test the formatting path, and only it.

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/experiments -run Golden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendered output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func ms250(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(100+i*50) * time.Millisecond
	}
	return out
}

func TestFleetRenderGolden(t *testing.T) {
	scenarios := []scenario{
		{name: "alpha", desc: "first synthetic scenario"},
		{name: "beta", desc: "second synthetic scenario"},
	}
	reports := []fleet.Report{
		{
			Seed: 1, Arrivals: 10, Departures: 2, Rejoins: 1, PeakOnline: 9,
			Outcomes:     fleet.Outcomes{Attempts: 30, Public: 20, Private: 4, Relay: 5, Failed: 0, Abandoned: 1, Times: ms250(24)},
			PeakSessions: 7, DeadSessions: 2, Repunches: 1,
			Pairs: []fleet.PairStat{
				{Pair: "cone<->cone", Outcomes: fleet.Outcomes{Attempts: 20, Public: 16, Private: 4, Times: ms250(20)}},
				{Pair: "cone<->symmetric", Outcomes: fleet.Outcomes{Attempts: 10, Relay: 5, Abandoned: 1}},
			},
			Server: rendezvous.Stats{ConnectRequests: 25, RelayedMessages: 100, RelayedBytes: 500},
			Fabric: sim.Stats{Sent: 1000},
			Events: 2000,
		},
		{
			Seed: 2, Arrivals: 5, PeakOnline: 5,
			Outcomes:     fleet.Outcomes{Attempts: 8, Public: 8, Times: ms250(8)},
			PeakSessions: 3,
			Pairs: []fleet.PairStat{
				{Pair: "public<->public", Outcomes: fleet.Outcomes{Attempts: 8, Public: 8, Times: ms250(8)}},
			},
			Server: rendezvous.Stats{ConnectRequests: 8},
			Fabric: sim.Stats{Sent: 200},
			Events: 400,
		},
	}
	goldenCompare(t, "e_fleet_render.golden", fleetResult(scenarios, reports).String())
}

func TestFedRenderGolden(t *testing.T) {
	scenarios := []scenario{
		{name: "one", desc: "synthetic single server"},
		{name: "pair-kill", desc: "synthetic pair with a kill"},
	}
	reports := []fleet.Report{
		{
			Seed:     1,
			Outcomes: fleet.Outcomes{Attempts: 30, Public: 24, Relay: 6},
			PerServer: []fleet.ServerLoad{
				{Index: 0, Homed: 20, Stats: rendezvous.Stats{RegistrationsUDP: 20, ConnectRequests: 28, RelayedMessages: 40}},
			},
			Server: rendezvous.Stats{RegistrationsUDP: 20, ConnectRequests: 28, RelayedMessages: 40},
		},
		{
			Seed:      2,
			Outcomes:  fleet.Outcomes{Attempts: 22, Public: 18, Relay: 4},
			Failovers: 7, ServerKilledAt: 5 * time.Minute,
			PerServer: []fleet.ServerLoad{
				{Index: 0, Homed: 11, Stats: rendezvous.Stats{RegistrationsUDP: 11, ConnectRequests: 9, FedRecords: 30, FedForwards: 12}},
				{Index: 1, Homed: 9, Stats: rendezvous.Stats{RegistrationsUDP: 20, ConnectRequests: 19, RelayedMessages: 25, FedRecords: 41, FedForwards: 8}},
			},
			Server: rendezvous.Stats{RegistrationsUDP: 31, ConnectRequests: 28, RelayedMessages: 25, FedRecords: 71, FedForwards: 20},
		},
	}
	goldenCompare(t, "e_fed_render.golden", fedResult(scenarios, reports).String())
}

func TestICERenderGolden(t *testing.T) {
	scenarios := []scenario{
		{name: "gamma", desc: "synthetic topology mix"},
		{name: "delta", desc: "synthetic ablation"},
	}
	reports := []fleet.Report{
		{
			Seed:     1,
			Outcomes: fleet.Outcomes{Attempts: 40, Public: 20, Private: 5, Hairpin: 6, Reflexive: 2, Relay: 6, Abandoned: 1},
			Pairs: []fleet.PairStat{
				{Pair: "symmetric<->symmetric", Outcomes: fleet.Outcomes{Attempts: 9, Hairpin: 6, Relay: 3, Times: ms250(6)}},
			},
			Topos: []fleet.TopoStat{
				{Topo: "cross", Outcomes: fleet.Outcomes{Attempts: 25, Public: 20, Reflexive: 2, Relay: 3, Times: ms250(22)}},
				{Topo: "same-cgn", Outcomes: fleet.Outcomes{Attempts: 9, Hairpin: 6, Relay: 3, Times: ms250(6)}},
				{Topo: "same-site", Outcomes: fleet.Outcomes{Attempts: 6, Private: 5, Abandoned: 1, Times: ms250(5)}},
			},
			Server: rendezvous.Stats{NegotiateRequests: 38, RelayedMessages: 60},
		},
		{
			Seed:     2,
			Outcomes: fleet.Outcomes{Attempts: 12, Relay: 12},
			Topos: []fleet.TopoStat{
				{Topo: "same-site", Outcomes: fleet.Outcomes{Attempts: 12, Relay: 12}},
			},
			Server: rendezvous.Stats{NegotiateRequests: 12, RelayedMessages: 200},
		},
	}
	goldenCompare(t, "e_ice_render.golden", iceResult(scenarios, reports).String())
}

func TestUpgradeRenderGolden(t *testing.T) {
	scenarios := []scenario{
		{name: "calm", desc: "synthetic stable overlay"},
		{name: "churny", desc: "synthetic rebind overlay"},
	}
	reports := []fleet.Report{
		{ // calm, punch-at-dial
			Seed:     1,
			Outcomes: fleet.Outcomes{Attempts: 30, Public: 20, Relay: 10},
			Pairs: []fleet.PairStat{
				{Pair: "cone<->cone", Outcomes: fleet.Outcomes{Attempts: 20, Public: 20, Times: ms250(20)}},
				{Pair: "cone<->symmetric", Outcomes: fleet.Outcomes{Attempts: 10, Relay: 10}},
			},
			ConnectTimes: ms250(30),
		},
		{ // calm, relay-first
			Seed: 1, Upgrades: 19, Failbacks: 1,
			Outcomes: fleet.Outcomes{Attempts: 30, Relay: 30},
			Pairs: []fleet.PairStat{
				{Pair: "cone<->cone", Outcomes: fleet.Outcomes{Attempts: 20, Relay: 20}, Upgraded: 18},
				{Pair: "cone<->symmetric", Outcomes: fleet.Outcomes{Attempts: 10, Relay: 10}},
			},
			ConnectTimes: ms250(30),
			UpgradeTimes: ms250(18),
		},
		{ // churny, punch-at-dial
			Seed:     2,
			Outcomes: fleet.Outcomes{Attempts: 12, Public: 9, Relay: 3},
			Pairs: []fleet.PairStat{
				{Pair: "cone<->cone", Outcomes: fleet.Outcomes{Attempts: 9, Public: 9, Times: ms250(9)}},
				{Pair: "symmetric<->symmetric", Outcomes: fleet.Outcomes{Attempts: 3, Relay: 3}},
			},
			ConnectTimes: ms250(12),
		},
		{ // churny, relay-first
			Seed: 2, Upgrades: 14, Failbacks: 6, NATRebinds: 4,
			Outcomes: fleet.Outcomes{Attempts: 12, Relay: 12},
			Pairs: []fleet.PairStat{
				{Pair: "cone<->cone", Outcomes: fleet.Outcomes{Attempts: 9, Relay: 9}, Upgraded: 8},
				{Pair: "symmetric<->symmetric", Outcomes: fleet.Outcomes{Attempts: 3, Relay: 3}},
			},
			ConnectTimes: ms250(12),
			UpgradeTimes: ms250(8),
		},
	}
	goldenCompare(t, "e_upgrade_render.golden", upgradeResult(scenarios, reports).String())
}
