package experiments_test

import (
	"fmt"
	"runtime"
	"testing"

	"natpunch/internal/experiments"
)

// detExperiments is a spread of cheap drivers covering UDP punching,
// TCP punching with loss, NAT-timeout sweeps, and multi-run grids —
// the shapes most likely to betray cross-run state sharing.
var detExperiments = []string{"E5", "E6", "E12", "E13"}

func runOne(t *testing.T, id string, seed int64) string {
	t.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	return e.Run(seed).String()
}

// TestRunnerSerialParallelIdentical is the engine's core guarantee:
// the rendered tables are byte-for-byte identical at any worker-pool
// width (-parallel 1 vs -parallel 8). The fleet-scale experiments ride
// along: each of their scenarios is an isolated (seed, config)
// simulation aggregated in submission order, and E-UPGRADE's paired
// variants share a derived seed that must be width-independent too.
func TestRunnerSerialParallelIdentical(t *testing.T) {
	defer experiments.SetWorkers(experiments.SetWorkers(1))
	for _, id := range append([]string{"E-FLEET", "E-ICE", "E-FED", "E-UPGRADE"}, detExperiments...) {
		t.Run(id, func(t *testing.T) {
			experiments.SetWorkers(1)
			serial := runOne(t, id, 1)
			experiments.SetWorkers(8)
			parallel := runOne(t, id, 1)
			if serial != parallel {
				t.Errorf("serial and 8-worker outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// TestRunnerSameSeedBitForBit runs each experiment twice with the
// same seed under the parallel pool: re-running a seed must reproduce
// the exact bytes.
func TestRunnerSameSeedBitForBit(t *testing.T) {
	defer experiments.SetWorkers(experiments.SetWorkers(4))
	for _, id := range detExperiments {
		first := runOne(t, id, 7)
		second := runOne(t, id, 7)
		if first != second {
			t.Errorf("%s: two runs with seed 7 differ:\n--- first ---\n%s\n--- second ---\n%s", id, first, second)
		}
	}
}

// TestRunnerGOMAXPROCSIndependent pins the scheduler to one OS
// thread, runs, then restores full width and runs again: results must
// not depend on how many threads the Go runtime may use.
func TestRunnerGOMAXPROCSIndependent(t *testing.T) {
	defer experiments.SetWorkers(experiments.SetWorkers(4))
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, id := range detExperiments {
		runtime.GOMAXPROCS(1)
		narrow := runOne(t, id, 3)
		runtime.GOMAXPROCS(orig)
		wide := runOne(t, id, 3)
		if narrow != wide {
			t.Errorf("%s: GOMAXPROCS=1 and GOMAXPROCS=%d outputs differ", id, orig)
		}
	}
}

// TestRunSeedsOrder checks that results come back in seed order no
// matter which worker finishes first.
func TestRunSeedsOrder(t *testing.T) {
	defer experiments.SetWorkers(experiments.SetWorkers(8))
	stub := experiments.Experiment{
		ID:    "stub",
		Title: "order probe",
		Run: func(seed int64) experiments.Result {
			return experiments.Result{ID: "stub", Table: fmt.Sprintf("seed=%d", seed)}
		},
	}
	seeds := experiments.Seeds(100, 64)
	results := experiments.RunSeeds(stub, seeds)
	if len(results) != len(seeds) {
		t.Fatalf("got %d results, want %d", len(results), len(seeds))
	}
	for i, r := range results {
		if want := fmt.Sprintf("seed=%d", seeds[i]); r.Table != want {
			t.Errorf("slot %d holds %q, want %q", i, r.Table, want)
		}
	}
}

// TestSeeds checks the campaign seed enumerator.
func TestSeeds(t *testing.T) {
	s := experiments.Seeds(5, 3)
	if len(s) != 3 || s[0] != 5 || s[1] != 6 || s[2] != 7 {
		t.Errorf("Seeds(5,3) = %v", s)
	}
	if len(experiments.Seeds(1, 0)) != 0 {
		t.Errorf("Seeds(1,0) should be empty")
	}
}

// TestRunAll smoke-runs the whole suite through the pool once.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	defer experiments.SetWorkers(experiments.SetWorkers(0))
	results := experiments.RunAll(1)
	all := experiments.All()
	if len(results) != len(all) {
		t.Fatalf("got %d results, want %d", len(results), len(all))
	}
	for i, r := range results {
		if r.ID != all[i].ID {
			t.Errorf("slot %d holds %s, want %s", i, r.ID, all[i].ID)
		}
		if r.Table == "" {
			t.Errorf("%s produced an empty table", r.ID)
		}
	}
}
