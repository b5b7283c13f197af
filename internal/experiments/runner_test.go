package experiments_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"natpunch/internal/experiments"
)

// detExperiments is a spread of cheap drivers covering UDP punching,
// TCP punching with loss, NAT-timeout sweeps, and multi-run grids —
// the shapes most likely to betray cross-run state sharing.
var detExperiments = []string{"E5", "E6", "E12", "E13"}

// seedOne is RunAll(1), computed once per test binary at GOMAXPROCS 8
// and shared by every test that reads a seed-1 table: TestRunAll,
// TestFigureExperiments, the *Expectations tests and, as its wide run,
// TestRunnerSerialParallelIdentical.
var seedOne = sync.OnceValue(func() []experiments.Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	return experiments.RunAll(1)
})

// seedOneResult is id's entry in seedOne: RunAll returns its results
// in All's order.
func seedOneResult(t *testing.T, id string) experiments.Result {
	t.Helper()
	for i, e := range experiments.All() {
		if e.ID == id {
			return seedOne()[i]
		}
	}
	t.Fatalf("unknown experiment %s", id)
	return experiments.Result{}
}

func runOne(t *testing.T, id string, seed int64) string {
	t.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	return e.Run(seed).String()
}

// TestRunnerSerialParallelIdentical is the engine's core guarantee:
// fanOut's pool is GOMAXPROCS wide, and the rendered tables are byte
// for byte identical at GOMAXPROCS 1 (a serial run) and 8 (seedOne's,
// where RunAll runs every experiment at once). The
// fleet-scale experiments ride along: each of their scenarios is an
// isolated (seed, config) simulation aggregated in submission order,
// and E-UPGRADE's paired variants share a derived seed that must be
// width-independent too.
func TestRunnerSerialParallelIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, id := range append([]string{"E-FLEET", "E-ICE", "E-FED", "E-UPGRADE"}, detExperiments...) {
		t.Run(id, func(t *testing.T) {
			parallel := seedOneResult(t, id).String()
			runtime.GOMAXPROCS(1)
			serial := runOne(t, id, 1)
			if serial != parallel {
				t.Errorf("GOMAXPROCS 1 and 8 outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// TestRunnerSameSeedBitForBit runs each experiment twice with the
// same seed: re-running a seed must reproduce the exact bytes.
func TestRunnerSameSeedBitForBit(t *testing.T) {
	for _, id := range detExperiments {
		first := runOne(t, id, 7)
		second := runOne(t, id, 7)
		if first != second {
			t.Errorf("%s: two runs with seed 7 differ:\n--- first ---\n%s\n--- second ---\n%s", id, first, second)
		}
	}
}

// TestRunnerGOMAXPROCSIndependent pins the scheduler to one OS
// thread, runs, then restores full width and runs again, at a second
// seed: results must not depend on how many threads the Go runtime may
// use, which is also the width of fanOut's pool.
func TestRunnerGOMAXPROCSIndependent(t *testing.T) {
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

// TestRunAll renders RunAll(1) the way cmd/experiments prints it and
// compares it with EXPERIMENTS.md's table block: every cell of every
// table is pinned, so a change that moves one fails here. The CLI
// prints RunSeeds(e, []int64{seed})[0] for each e instead; both call
// e.Run(seed), whose worlds are built from the seed alone, so running
// the experiments one after another or all at once prints the same.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(doc), "```\n")
	want, _, ok := strings.Cut(block, "```")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no table block")
	}
	var b strings.Builder
	for _, r := range seedOne() {
		fmt.Fprintln(&b, r)
		fmt.Fprintln(&b)
	}
	got := strings.Split(strings.TrimSuffix(b.String(), "\n\n"), "\n")
	lines := strings.Split(want, "\n")
	for i := range max(len(got), len(lines)) {
		g, w := "<EOF>", "<EOF>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("RunAll(1) differs from EXPERIMENTS.md at block line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
