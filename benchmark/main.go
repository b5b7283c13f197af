// Command benchmark is the repository's performance ledger: six
// workloads over real loopback UDP covering connect, relay forward
// and stream transfer, end-to-end metrics measured with tracing off,
// and per-layer metrics from isolated micro-drivers and one traced
// repetition. See README.md.
//
//	go run -C benchmark . -seed 1                  every workload, JSON on stdout, table on stderr
//	go run -C benchmark . -workload stream_rpc     one workload, end-to-end metrics
//	go run -C benchmark . -workload stream_rpc -trace 1   ... its per-layer metrics
//	go run -C benchmark . -compare a.json b.json   two ledgers, row by row
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// detail is what one child process measured: everything the ledger
// keeps beyond the one-line result the driver reads.
type detail struct {
	Workload  string             `json:"workload"`
	OpUnit    string             `json:"op_unit"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]reading `json:"end_to_end,omitempty"`
	Latency   *dist              `json:"latency_us,omitempty"`
	Reps      []repResult        `json:"reps,omitempty"`
	PerLayer  metrics            `json:"per_layer,omitempty"`
}

// result is the last line of standard output, the line the benchmark
// driver parses.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]driverKV `json:"metrics"`
}

type driverKV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all, each in its own subprocess)")
		seed    = flag.Int64("seed", 1, "seed for every generated input: listener choice, loss pattern, payloads")
		seconds = flag.Float64("seconds", 18, "measured seconds per workload, split across the repetitions")
		reps    = flag.Int("reps", 3, "untraced repetitions per workload; each sets the world up afresh")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (micro-drivers and one traced repetition)")
		compare = flag.Bool("compare", false, "compare two ledgers: -compare parent.json change.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *name == "":
		err = runLedger(*seed, *seconds, *reps)
	default:
		err = runOne(*name, *seed, *seconds, *reps, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its detail
// line followed by its result line.
func runOne(name string, seed int64, seconds float64, reps int, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if reps < 1 || seconds <= 0 {
		return errors.New("-reps and -seconds must be positive")
	}
	d := detail{Workload: w.name, OpUnit: w.opUnit, Seed: seed, Seconds: seconds}
	res := result{Correct: true, Metrics: map[string]driverKV{}}
	if traced {
		if err := tracedRun(w, seed, seconds, &d); err != nil {
			return err
		}
		printTable(os.Stderr, w.name+" per layer", perLayer, func(n string) (float64, string, int, bool) {
			m, ok := d.PerLayer[n]
			return m.Value, m.Unit, m.N, ok
		})
		for _, def := range perLayer {
			m, ok := d.PerLayer[def.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", def.name)
			}
			res.Metrics[def.name] = driverKV{m.Value, m.Unit}
		}
	} else {
		dur := time.Duration(seconds / float64(reps) * float64(time.Second))
		preamble := time.Since(processStart)
		for r := 0; r < reps; r++ {
			rr, err := runRep(w, seed, r, dur, nil, preamble)
			if err != nil {
				return fmt.Errorf("%s rep %d: %w", w.name, r, err)
			}
			d.Reps = append(d.Reps, rr)
			d.Attempted += rr.Attempted
			d.Failed += rr.Failed
		}
		var lat dist
		d.EndToEnd, lat = endToEndOf(d.Reps)
		d.Latency = &lat
		printTable(os.Stderr, w.name+" end to end ("+w.opUnit+")", endToEnd, func(n string) (float64, string, int, bool) {
			r, ok := d.EndToEnd[n]
			return r.Value, r.Unit, r.N, ok
		})
		for _, def := range endToEnd {
			r := d.EndToEnd[def.name]
			res.Metrics[def.name] = driverKV{r.Value, r.Unit}
		}
	}
	res.Attempted, res.Failed = max(d.Attempted, 1), d.Failed
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]detail{"detail": d}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return out.Flush()
}

// tracedRun produces the per-layer metrics: the micro-drivers, then
// one untraced and one traced repetition over the same inputs, whose
// throughput ratio is the tracing overhead. Spans go to
// out/trace-<workload>.jsonl.
func tracedRun(w *workload, seed int64, seconds float64, d *detail) error {
	tr := newTracer()
	micro, err := runMicro(seed, tr)
	if err != nil {
		return fmt.Errorf("micro-drivers: %w", err)
	}
	dur := time.Duration(seconds / 2 * float64(time.Second))
	plain, err := runRep(w, seed, 0, dur, nil, 0)
	if err != nil {
		return fmt.Errorf("%s untraced: %w", w.name, err)
	}
	traced, err := runRep(w, seed, 0, dur, tr, 0)
	if err != nil {
		return fmt.Errorf("%s traced: %w", w.name, err)
	}
	d.PerLayer = perLayerOf(micro, &plain, &traced, tr)
	d.Attempted = plain.Attempted + traced.Attempted
	d.Failed = plain.Failed + traced.Failed
	return tr.writeSpans(filepath.Join("out", "trace-"+w.name+".jsonl"))
}

// ledger is the whole run: what -compare reads and what a baseline
// commits.
type ledger struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Reps      int                       `json:"reps"`
	NumCPU    int                       `json:"nproc"`
	Go        string                    `json:"go"`
	Network   string                    `json:"network"`
	Workloads map[string]*ledgerSection `json:"workloads"`
}

type ledgerSection struct {
	Why       string              `json:"why"`
	OpUnit    string              `json:"op_unit"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	EndToEnd  map[string]reading  `json:"end_to_end"`
	Named     map[string]*reading `json:"end_to_end_named"`
	Latency   *dist               `json:"latency_us"`
	PerLayer  metrics             `json:"per_layer"`
}

// runLedger runs every workload, each mode in its own subprocess so
// that no workload inherits another's heap, sockets or goroutines.
func runLedger(seed int64, seconds float64, reps int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	l := ledger{
		Seed: seed, Seconds: seconds, Reps: reps,
		NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		Network:   "loopback (127.0.0.1), real UDP sockets, no physical link",
		Workloads: map[string]*ledgerSection{},
	}
	for _, w := range workloads {
		sec := &ledgerSection{Why: w.why, OpUnit: w.opUnit, Correct: true}
		l.Workloads[w.name] = sec
		for trace := 0; trace <= 1; trace++ {
			d, err := runChild(exe, w.name, seed, seconds, reps, trace)
			if err != nil {
				return err
			}
			if trace == 0 {
				sec.EndToEnd, sec.Latency = d.EndToEnd, d.Latency
				sec.Attempted, sec.Failed = d.Attempted, d.Failed
				bytesPerOp := 0.0
				if len(d.Reps) > 0 {
					_, ops, _ := d.Reps[0].totals()
					bytesPerOp = d.Reps[0].Bytes / ops
				}
				sec.Named = aliases(w.name, d.EndToEnd, *d.Latency, bytesPerOp, d.Attempted, d.Failed)
			} else {
				sec.PerLayer = d.PerLayer
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// runChild re-executes this binary for one workload and mode, passes
// its table through, and returns its detail line.
func runChild(exe, name string, seed int64, seconds float64, reps, trace int) (*detail, error) {
	cmd := exec.Command(exe,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(reps), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s (trace %d): printed %d lines, want detail and result", name, trace, len(lines))
	}
	var wrapped map[string]detail
	if err := json.Unmarshal(lines[len(lines)-2], &wrapped); err != nil {
		return nil, fmt.Errorf("%s (trace %d): detail line: %w", name, trace, err)
	}
	d := wrapped["detail"]
	return &d, nil
}
