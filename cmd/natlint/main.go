// Command natlint runs the repository's invariant analyzers
// (internal/analysis) over the whole module: determinism (no wall
// clock or global randomness inside the engine), maporder (no map
// iteration order on wire/render paths), layering (facade edges as
// pinned in docs/API.md), wiredispatch (exhaustive wire-message
// handling), bufown (callback-scoped buffers must not escape their
// callback), and golifecycle (goroutines and timers tied to
// shutdown). See docs/LINT.md.
//
// Usage:
//
//	go run ./cmd/natlint [flags] [./...]
//
// The module enclosing the working directory is always analyzed in
// full — the invariants are module-global, so package patterns are
// accepted only for command-line familiarity. Files are selected as
// the go command selects them: for the host platform, or for $GOOS
// when it is set. Running the built binary with GOOS=windows or
// GOOS=darwin analyzes that platform's files (e.g. realudp's
// batch_other.go) against that platform's standard library:
//
//	go build -o natlint ./cmd/natlint && GOOS=windows ./natlint ./...
//
// (`GOOS=windows go run` would cross-compile a binary it cannot run.)
// natlint needs `go` on PATH: one `go list` run says what to load, and
// the standard library is imported from the export data it finds (or
// builds) in the build cache.
//
// Flags:
//
//	-json FILE  write the diagnostics as a deterministic JSON artifact
//	-github     emit GitHub Actions ::error annotations instead of plain lines
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 the module does
// not build (the go command's error is printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"natpunch/internal/analysis"
)

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
	mod, err := analysis.Load(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "natlint: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(mod, analysis.DefaultConfig(), analyzers)
	elapsed := time.Since(start)

	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Check]++
		if rel, err := filepath.Rel(mod.Dir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=natlint(%s)::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, githubEscape(d.Message))
		} else {
			fmt.Println(d)
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, mod, diags); err != nil {
			fmt.Fprintf(os.Stderr, "natlint: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}

	summary := fmt.Sprintf("natlint: %d package(s)", len(mod.Packages))
	for _, a := range analyzers {
		summary += fmt.Sprintf(" · %s %d", a.Name, counts[a.Name])
	}
	if n := counts["pragma"]; n > 0 {
		summary += fmt.Sprintf(" · pragma %d", n)
	}
	summary += fmt.Sprintf(" · %.2fs", elapsed.Seconds())
	fmt.Fprintln(os.Stderr, summary)

	if len(diags) > 0 {
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
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// writeJSON emits the deterministic diagnostics artifact (no timing,
// no absolute paths).
func writeJSON(path string, mod *analysis.Module, diags []analysis.Diagnostic) error {
	out := struct {
		Module      string           `json:"module"`
		Diagnostics []jsonDiagnostic `json:"diagnostics"`
	}{
		Module:      mod.Path,
		Diagnostics: make([]jsonDiagnostic, 0, len(diags)),
	}
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(mod.Dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out.Diagnostics = append(out.Diagnostics, jsonDiagnostic{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Check: d.Check, Message: d.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
