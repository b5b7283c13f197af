// Command experiments runs the paper's reproduction experiments —
// Table 1, every figure, and the section-level ablations — printing
// paper-style tables.
//
// Usage:
//
//	go run ./cmd/experiments                    # run everything
//	go run ./cmd/experiments -run E1            # Table 1 survey only
//	go run ./cmd/experiments -run E-FLEET       # population-scale churn fleet
//	go run ./cmd/experiments -run E-ICE         # candidate negotiation x topologies
//	go run ./cmd/experiments -list              # list experiment IDs
//	GOMAXPROCS=1 go run ./cmd/experiments       # serial run
//	go run ./cmd/experiments -run E1 -runs 100  # 100-seed campaign
//
// Each experiment's workload fans out across GOMAXPROCS workers;
// tables are byte-identical at every width. -runs N repeats each
// experiment over seeds seed..seed+N-1 and reports how many distinct
// outputs the campaign produced (a quick stability read on the
// paper's statistical claims).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"natpunch/internal/experiments"
)

func main() {
	runID := flag.String("run", "", "run a single experiment by ID (e.g. E1)")
	seed := flag.Int64("seed", 1, "base simulation seed")
	runs := flag.Int("runs", 1, "seeds per experiment (seed..seed+runs-1)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if *runs < 1 {
		*runs = 1
	}

	todo := experiments.All()
	if *runID != "" {
		e, ok := experiments.Lookup(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runID)
			os.Exit(1)
		}
		todo = []experiments.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		results := experiments.RunSeeds(e, experiments.Seeds(*seed, *runs))
		elapsed := time.Since(start)
		fmt.Println(results[0])
		if *runs > 1 {
			distinct := map[string]int{}
			for _, r := range results {
				distinct[r.String()]++
			}
			fmt.Printf("multi-seed: %d runs (seeds %d..%d), %d distinct outputs, %v wall clock at %d workers\n",
				*runs, *seed, *seed+int64(*runs)-1, len(distinct), elapsed.Round(time.Millisecond), runtime.GOMAXPROCS(0))
		}
		fmt.Println()
	}
}
