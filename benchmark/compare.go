package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of ../BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the parent's value
// by which it may worsen.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges one (metric, workload) pair of a parent and a change
// ledger. worse is the change's movement in the bad direction as a
// share of the parent's value. A pair whose repetitions spread wider
// than the bound cannot be told apart from noise and is unresolved —
// unless every repetition of the change reads better than every
// repetition of the parent.
func verdict(parent, change reading, better string, bound float64) (worse float64, v string) {
	if parent.Value == 0 {
		return 0, "unresolved"
	}
	worse = (change.Value - parent.Value) / parent.Value
	allBetter := change.Max < parent.Min
	if better == "higher" {
		worse = -worse
		allBetter = change.Min > parent.Max
	}
	switch {
	case allBetter:
		return worse, "ok"
	case parent.spread() > bound || change.spread() > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// runCompare prints one row per (metric, workload) and fails when any
// row regressed. Paths are relative to the benchmark directory.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare parent.json change.json")
	}
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		return err
	}
	var parent, change ledger
	if err := readJSON(args[0], &parent); err != nil {
		return err
	}
	if err := readJSON(args[1], &change); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse by\tbound\tverdict")
	regressed := 0
	for _, w := range bf.Workloads {
		p, c := parent.Workloads[w.Name], change.Workloads[w.Name]
		if p == nil || c == nil {
			return fmt.Errorf("workload %s is missing from a ledger", w.Name)
		}
		for _, m := range bf.EndToEnd {
			pr, ok1 := p.EndToEnd[m.Name]
			cr, ok2 := c.EndToEnd[m.Name]
			if !ok1 || !ok2 {
				return fmt.Errorf("%s on %s is missing from a ledger", m.Name, w.Name)
			}
			worse, v := verdict(pr, cr, m.Better, m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, pr.Value, pr.Unit, cr.Value, cr.Unit, 100*worse, 100*m.Bound, v)
		}
		if c.Failed > p.Failed {
			regressed++
			fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t\tregressed\n", w.Name, p.Failed, p.Attempted, c.Failed, c.Attempted)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d row(s) regressed", regressed)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
