// Command natlint runs the repository's invariant analyzers
// (internal/analysis) over the whole module: determinism (no wall
// clock or global randomness inside the engine), maporder (no map
// iteration order on wire/render paths), layering (facade edges as
// pinned in docs/API.md), wiredispatch (exhaustive wire-message
// handling), bufown (callback-scoped buffers must not escape their
// callback), atomicfield (no mixed atomic/plain access), and
// golifecycle (goroutines and timers tied to shutdown). See
// docs/LINT.md.
//
// Usage:
//
//	go run ./cmd/natlint [flags] [./...]
//
// The module enclosing the working directory is always analyzed in
// full — the invariants are module-global, so package patterns are
// accepted only for command-line familiarity. By default the suite
// runs over both data-plane build flavors (native and portable), so
// e.g. realudp's batch_linux.go and batch_other.go are both analyzed
// regardless of the host platform; a finding is annotated with its
// flavor only when it does not appear in every flavor.
//
// Flags:
//
//	-json FILE  write the diagnostics as a deterministic JSON artifact
//	-github     emit GitHub Actions ::error annotations instead of plain lines
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 package load or
// type-check failure (load failures are reported as ordinary "load"
// diagnostics rather than aborting the run at the first broken
// package).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"natpunch/internal/analysis"
)

// flavorNames are the build flavors every run analyzes, in order.
var flavorNames = []string{"native", "portable"}

// flavorGOOS maps flavor names to the module-file-selection GOOS
// override ("" = native platform).
var flavorGOOS = map[string]string{
	"native":   "",
	"portable": "portable",
}

// finding is one merged diagnostic with the flavors it appeared in.
type finding struct {
	d       analysis.Diagnostic
	flavors []string
}

func main() {
	jsonPath := flag.String("json", "", "write diagnostics to this file as a deterministic JSON artifact")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations instead of plain lines")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: natlint [-json FILE] [-github] [./...]\n")
	}
	flag.Parse()
	for _, arg := range flag.Args() {
		// "./..." style patterns are tolerated for familiarity; anything
		// else flag-shaped snuck past the parser and is an error.
		if strings.HasPrefix(arg, "-") {
			flag.Usage()
			os.Exit(2)
		}
	}

	start := time.Now()
	analyzers := analysis.Analyzers()
	merged := make(map[string]*finding)
	var modDir, modPath string
	var loadFailed bool
	packages := 0
	var prev *analysis.Module
	for _, name := range flavorNames {
		mod, loadDiags, err := analysis.LoadWith(".", analysis.LoadOptions{
			GOOS:  flavorGOOS[name],
			Reuse: prev,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "natlint: %v\n", err)
			os.Exit(2)
		}
		modDir, modPath = mod.Dir, mod.Path
		if n := len(mod.Packages); n > packages {
			packages = n
		}
		if len(loadDiags) > 0 {
			loadFailed = true
		}
		diags := append(loadDiags, analysis.Run(mod, analysis.DefaultConfig(), analyzers)...)
		for _, d := range diags {
			key := d.String()
			f, ok := merged[key]
			if !ok {
				f = &finding{d: d}
				merged[key] = f
			}
			f.flavors = append(f.flavors, name)
		}
		prev = mod
	}
	elapsed := time.Since(start)

	// Merged keys are unique diagnostics, so the stable emitter order
	// (numeric line/column, not lexical) is a total order over them.
	findings := make([]*finding, 0, len(merged))
	for _, f := range merged {
		findings = append(findings, f)
	}
	sort.Slice(findings, func(i, j int) bool {
		return analysis.DiagnosticLess(findings[i].d, findings[j].d)
	})

	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.d.Check]++
		d := f.d
		if rel, err := filepath.Rel(modDir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		suffix := ""
		if len(f.flavors) < len(flavorNames) {
			suffix = fmt.Sprintf(" (flavor: %s)", strings.Join(f.flavors, ","))
		}
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=natlint(%s)::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, githubEscape(d.Message+suffix))
		} else {
			fmt.Printf("%s%s\n", d, suffix)
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, modDir, modPath, flavorNames, findings); err != nil {
			fmt.Fprintf(os.Stderr, "natlint: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}

	summary := fmt.Sprintf("natlint: %d package(s) · %d flavor(s)", packages, len(flavorNames))
	for _, a := range analyzers {
		summary += fmt.Sprintf(" · %s %d", a.Name, counts[a.Name])
	}
	for _, extra := range []string{"pragma", "load"} {
		if n := counts[extra]; n > 0 {
			summary += fmt.Sprintf(" · %s %d", extra, n)
		}
	}
	summary += fmt.Sprintf(" · %.2fs", elapsed.Seconds())
	fmt.Fprintln(os.Stderr, summary)

	switch {
	case loadFailed:
		os.Exit(2)
	case len(findings) > 0:
		os.Exit(1)
	}
}

// githubEscape encodes a message for a GitHub Actions workflow
// command: %, CR, and LF must be percent-escaped.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	return strings.ReplaceAll(s, "\n", "%0A")
}

// jsonDiagnostic is the -json artifact schema for one finding.
type jsonDiagnostic struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Check   string   `json:"check"`
	Message string   `json:"message"`
	Flavors []string `json:"flavors"`
}

// writeJSON emits the deterministic diagnostics artifact (no timing,
// no absolute paths).
func writeJSON(path, modDir, modPath string, flavorNames []string, findings []*finding) error {
	out := struct {
		Module      string           `json:"module"`
		Flavors     []string         `json:"flavors"`
		Diagnostics []jsonDiagnostic `json:"diagnostics"`
	}{
		Module:      modPath,
		Flavors:     flavorNames,
		Diagnostics: make([]jsonDiagnostic, 0, len(findings)),
	}
	for _, f := range findings {
		file := f.d.Pos.Filename
		if rel, err := filepath.Rel(modDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out.Diagnostics = append(out.Diagnostics, jsonDiagnostic{
			File: file, Line: f.d.Pos.Line, Col: f.d.Pos.Column,
			Check: f.d.Check, Message: f.d.Message, Flavors: f.flavors,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
