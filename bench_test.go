package natpunch

// The benchmark harness: one testing.B benchmark per table and figure
// in the paper's evaluation (plus the section-level ablations), each
// delegating to the corresponding experiment driver. Benchmarks
// measure simulated-workload throughput (wall time per full
// experiment run); the experiment *outputs* — the paper-shaped tables
// — are what EXPERIMENTS.md records.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or a single artifact, e.g. the Table 1 survey:
//
//	go test -bench=BenchmarkTable1 -benchmem
//
// Each experiment's internal fan-out is GOMAXPROCS wide, so go test's
// -cpu flag sets the pool width (-cpu 1,4 compares serial with four
// workers), and -runs N sets the independent seeds per benchmark
// iteration (default 1), e.g. -runs 100 for a multi-seed campaign:
//
//	go test -bench=BenchmarkTable1 -benchmem -cpu 1,4 -runs 8
//
// Output tables are byte-identical at every width.

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"natpunch/internal/experiments"
	"natpunch/internal/fleet"
	"natpunch/internal/nat"
)

var benchRuns = flag.Int("runs", 1, "independent seeds per benchmark iteration")

// benchExperiment runs one experiment driver per iteration over -runs
// distinct seeds, so allocations and runtime reflect full fresh runs.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	runs := *benchRuns
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.RunSeeds(e, experiments.Seeds(int64(i*runs+1), runs)) {
			if r.Table == "" {
				b.Fatal("empty result")
			}
		}
	}
}

// BenchmarkTable1NATCheckSurvey regenerates Table 1: NAT Check over
// the full 380-device vendor population.
func BenchmarkTable1NATCheckSurvey(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkFig1AddressRealms measures the reachability-matrix
// experiment for Figure 1.
func BenchmarkFig1AddressRealms(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkFig2Relaying measures the relaying-cost experiment.
func BenchmarkFig2Relaying(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkFig3ConnectionReversal measures the reversal experiment.
func BenchmarkFig3ConnectionReversal(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkFig4CommonNAT measures the common-NAT punching experiment.
func BenchmarkFig4CommonNAT(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkFig5DifferentNATs measures the 4x4 behavior-matrix punch
// sweep.
func BenchmarkFig5DifferentNATs(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkFig6MultiLevelNAT measures the hairpin-dependent
// multi-level scenario.
func BenchmarkFig6MultiLevelNAT(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkFig7TCPPortReuse measures the socket-accounting
// experiment.
func BenchmarkFig7TCPPortReuse(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkFig8NATCheckUDP measures the NAT Check methodology
// walkthrough.
func BenchmarkFig8NATCheckUDP(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkSec43OSBehaviors measures the OS-flavor behavior sweep.
func BenchmarkSec43OSBehaviors(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkSec44SimultaneousOpen measures the crossing-SYN scenario.
func BenchmarkSec44SimultaneousOpen(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkSec45SequentialVsParallel measures both TCP punching
// procedures under clean and lossy networks.
func BenchmarkSec45SequentialVsParallel(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkSec36KeepAlives measures the keep-alive interval sweep.
func BenchmarkSec36KeepAlives(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkSec51PortPrediction measures the symmetric-NAT prediction
// ablation.
func BenchmarkSec51PortPrediction(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkSec52RSTvsDrop measures punch latency under the refusal
// modes.
func BenchmarkSec52RSTvsDrop(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkSec53PayloadMangling measures the obfuscation ablation.
func BenchmarkSec53PayloadMangling(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkConnectorAggregate measures the population-level connector
// sweep.
func BenchmarkConnectorAggregate(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkFleetChurn measures the full E-FLEET driver (three churn
// scenarios fanned over the worker pool).
func BenchmarkFleetChurn(b *testing.B) { benchExperiment(b, "E-FLEET") }

// BenchmarkICECandidates measures the full E-ICE driver (seven
// topology/ablation scenarios fanned over the worker pool).
func BenchmarkICECandidates(b *testing.B) { benchExperiment(b, "E-ICE") }

// BenchmarkFleet is the standing scale-regression workload: one churn
// simulation per iteration at growing population sizes, all on a
// single deterministic scheduler. ns/op growing faster than the
// population means a hot path (NAT table, scheduler queue, punch
// dispatch) regressed from linear.
func BenchmarkFleet(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			cfg := fleet.Config{
				Peers:            n,
				Duration:         5 * time.Minute,
				MeanArrival:      50 * time.Millisecond,
				MeanLifetime:     2 * time.Minute,
				MeanRejoin:       time.Minute,
				MeanConnectEvery: 25 * time.Second,
			}
			benchFleetRuns(b, cfg)
		})
	}
}

// BenchmarkFleetTopologies re-runs the 300-peer churn point over each
// site shape in isolation, so a regression localized to one topology
// path (private-candidate LAN traffic, CGN hairpin forwarding) shows
// up against the flat baseline.
func BenchmarkFleetTopologies(b *testing.B) {
	shapes := map[string][]fleet.SiteShape{
		"flat":   fleet.FlatOnly(),
		"shared": {{Label: "household-4", Kind: fleet.SiteShared, Hosts: 4, Weight: 1}},
		"cgn":    {{Label: "cgn-4", Kind: fleet.SiteCGN, Hosts: 4, CGN: nat.WellBehaved(), Weight: 1}},
		"mix":    fleet.Heterogeneous(),
	}
	for _, name := range []string{"flat", "shared", "cgn", "mix"} {
		b.Run(name, func(b *testing.B) {
			cfg := fleet.Config{
				Peers:            300,
				Duration:         5 * time.Minute,
				MeanArrival:      50 * time.Millisecond,
				MeanLifetime:     2 * time.Minute,
				MeanRejoin:       time.Minute,
				MeanConnectEvery: 25 * time.Second,
				Topology:         shapes[name],
			}
			benchFleetRuns(b, cfg)
		})
	}
}

// BenchmarkConnect is the standing connect-latency workload: the same
// 48-peer fleet dialed relay-first and punch-at-dial, reporting
// dial-to-usable-session p50/p95 plus the relay->direct upgrade
// success rate as benchmark metrics.
func BenchmarkConnect(b *testing.B) {
	base := fleet.Config{
		Peers:            48,
		Duration:         6 * time.Minute,
		MeanArrival:      500 * time.Millisecond,
		MeanLifetime:     24 * time.Hour,
		MeanConnectEvery: 20 * time.Second,
		AppDataEvery:     5 * time.Second,
	}
	for _, mode := range []string{"punch-at-dial", "relay-first"} {
		b.Run(mode, func(b *testing.B) {
			cfg := base
			cfg.Punch.RelayFirst = mode == "relay-first"
			b.ReportAllocs()
			var last fleet.Report
			for i := 0; i < b.N; i++ {
				last = fleet.Run(int64(i+1), cfg)
				if last.Attempts == 0 {
					b.Fatal("fleet made no punch attempts")
				}
			}
			b.ReportMetric(float64(last.ConnectQuantile(0.5))/float64(time.Millisecond), "p50-ms")
			b.ReportMetric(float64(last.ConnectQuantile(0.95))/float64(time.Millisecond), "p95-ms")
			if cfg.Punch.RelayFirst {
				upgraded := 0
				for _, ps := range last.Pairs {
					upgraded += ps.Upgraded
				}
				rate := 0.0
				if c := last.Relay + last.Failed; c > 0 {
					rate = float64(upgraded) / float64(c)
				}
				b.ReportMetric(rate, "upgrade-rate")
				b.ReportMetric(float64(last.UpgradeQuantile(0.5))/float64(time.Millisecond), "upgrade-p50-ms")
			}
		})
	}
}

func benchFleetRuns(b *testing.B, cfg fleet.Config) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		rep := fleet.Run(int64(i+1), cfg)
		if rep.Attempts == 0 {
			b.Fatal("fleet made no punch attempts")
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
