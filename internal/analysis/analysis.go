// Package analysis is natlint's engine: a stdlib-only static-analysis
// driver (go/parser + go/types + go/importer) that loads every package
// in the module and runs repo-specific analyzers enforcing the
// invariants the experiment results depend on — determinism inside the
// engine (no wall clock, no global randomness: everything flows
// through the natpunch/transport seam), no map-iteration order
// reaching the packet stream or golden-file tables, the documented
// facade layering, and exhaustive wire-message dispatch.
//
// A diagnostic is suppressed by a pragma comment on the flagged line
// or the line directly above it:
//
//	//natlint:ignore <check> <reason>
//
// The pragma names exactly one check and must carry a reason; a
// reasonless or malformed pragma is itself reported (check "pragma").
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned for file:line:col
// reporting.
type Diagnostic struct {
	// Check is the analyzer (or "pragma") that produced the finding.
	Check string
	// Pos locates the finding.
	Pos token.Position
	// Message states the violated invariant and the offending symbol.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// diagnosticLess reports whether a orders before b in the stable
// emitter order: filename, then numeric line and column, then check,
// then message, so positions sort numerically, not lexically.
func diagnosticLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Check != b.Check {
		return a.Check < b.Check
	}
	return a.Message < b.Message
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the check name used in diagnostics and ignore pragmas.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects the module and reports findings through the pass.
	Run func(*Pass)
}

// Pass hands an analyzer the loaded module, its configuration, and a
// report sink.
type Pass struct {
	// Module is the fully loaded and type-checked module.
	Module *Module
	// Config scopes the analyzers (package sets, allowed edges).
	Config *Config
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: p.Module.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// ReportAt records a finding at an explicit file position — used for
// diagnostics anchored in non-Go files such as the layering contract
// in docs/API.md.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Config scopes the analyzers to the repository's package sets. Path
// lists accept exact import paths or "prefix/..." patterns.
type Config struct {
	// EnginePackages are the deterministic engine/sim packages where
	// the determinism analyzer forbids wall-clock time and global
	// randomness (the transport seam is the only legal source of
	// either).
	EnginePackages []string
	// WirePackages are the wire/render-path packages where the
	// maporder analyzer flags direct map iteration.
	WirePackages []string
	// APIDoc is the module-relative path of the document whose
	// "natlint:edges" block pins the allowed public->internal import
	// edges for the layering analyzer.
	APIDoc string
	// InternalAllowedPublic lists the module packages outside
	// internal/ that internal packages may import (the engine ->
	// transport seam).
	InternalAllowedPublic []string
	// ProtoPackage is the wire-protocol package holding the Type
	// constants checked by the wiredispatch analyzer.
	ProtoPackage string
	// DispatchPackages are the packages whose switches over the wire
	// Type must, in union, cover every Type constant.
	DispatchPackages []string
	// BufOwnPackages are the data-plane packages where the bufown
	// analyzer enforces the callback-scoped buffer-ownership contract
	// (OnRecv payloads, decoder-owned Message fields, scratch reuse).
	BufOwnPackages []string
	// MessageTypes name wire-message types ("pkgpath.Type") whose
	// slice fields are decoder-owned when the value, or a pointer to
	// it, is received as a function parameter — valid only until the
	// handler returns.
	MessageTypes []string
	// ScratchFields name reused encode scratch ("pkgpath.Type.field"):
	// legal escape targets for callback-scoped data, and themselves
	// reused-buffer sources that must not be retained elsewhere.
	ScratchFields []string
	// LifecyclePackages are the engine/facade/transport packages where
	// the golifecycle analyzer requires every go statement to be tied
	// to a shutdown path and every timer field to be stoppable.
	LifecyclePackages []string
}

// DefaultConfig returns the natpunch repository's scoping.
func DefaultConfig() *Config {
	return &Config{
		EnginePackages: []string{
			"natpunch/internal/sim",
			"natpunch/internal/punch",
			"natpunch/internal/ice",
			"natpunch/internal/fleet",
			"natpunch/internal/rendezvous",
			"natpunch/internal/experiments",
			"natpunch/internal/tcp",
			"natpunch/internal/stream",
			"natpunch/simnet",
		},
		WirePackages: []string{
			"natpunch",
			"natpunch/stream",
			"natpunch/internal/proto",
			"natpunch/internal/punch",
			"natpunch/internal/ice",
			"natpunch/internal/rendezvous",
			"natpunch/internal/experiments",
			"natpunch/internal/fleet",
			"natpunch/internal/stream",
		},
		APIDoc:                "docs/API.md",
		InternalAllowedPublic: []string{"natpunch/transport"},
		ProtoPackage:          "natpunch/internal/proto",
		// Server-received types dispatch in rendezvous; client-received
		// types dispatch in punch (UDP and TCP paths) and — for the
		// TypeStream* frame types — the stream layer. The union
		// must cover every wire type, so a new message can never
		// silently fall through everywhere.
		DispatchPackages: []string{
			"natpunch/internal/rendezvous",
			"natpunch/internal/punch",
			"natpunch/internal/stream",
		},
		// Every package a live datagram payload flows through. The
		// sim-only engines (sim, fleet, experiments) are excluded: their
		// transports copy by construction and their echo responders
		// legitimately bounce payloads synchronously.
		BufOwnPackages: []string{
			"natpunch",
			"natpunch/transport",
			"natpunch/simnet",
			"natpunch/realudp",
			"natpunch/rendezvousapi",
			"natpunch/natcheckapi",
			"natpunch/internal/punch",
			"natpunch/internal/rendezvous",
			"natpunch/internal/tcp",
			"natpunch/internal/stream",
			"natpunch/stream",
			"natpunch/internal/host",
			"natpunch/internal/natcheck",
		},
		MessageTypes: []string{"natpunch/internal/proto.Message", "natpunch/internal/stream.Frame"},
		ScratchFields: []string{
			"natpunch/internal/rendezvous.Server.fedScratch",
			"natpunch/internal/rendezvous.Server.scratchMsg",
		},
		// Everything that spawns goroutines serving live sessions: the
		// facade, both socket transports, the sim world driver, and the
		// engine packages behind them.
		LifecyclePackages: []string{
			"natpunch",
			"natpunch/transport",
			"natpunch/simnet",
			"natpunch/realudp",
			"natpunch/internal/punch",
			"natpunch/internal/rendezvous",
			"natpunch/internal/tcp",
			"natpunch/internal/stream",
			"natpunch/stream",
			"natpunch/internal/host",
			"natpunch/internal/experiments",
		},
	}
}

// Analyzers returns the full natlint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, MapOrder, Layering, WireDispatch, BufOwn, GoLifecycle}
}

// matchPath reports whether the import path matches pattern: an exact
// path, or a "prefix/..." subtree pattern.
func matchPath(path, pattern string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return path == pattern
}

func matchAny(path string, patterns []string) bool {
	for _, pat := range patterns {
		if matchPath(path, pat) {
			return true
		}
	}
	return false
}

// pragma is one parsed //natlint:ignore comment.
type pragma struct {
	check string
	file  string
	line  int
	used  bool
}

const pragmaPrefix = "natlint:ignore"

// collectPragmas parses every ignore pragma in the module, reporting
// malformed ones (no check name, or no reason) as "pragma"
// diagnostics: a suppression without a recorded justification is
// exactly the tribal knowledge natlint exists to eliminate.
func collectPragmas(mod *Module, report func(Diagnostic)) []*pragma {
	var pragmas []*pragma
	for _, pkg := range mod.Sorted() {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
					text = strings.TrimSuffix(text, "*/")
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, pragmaPrefix)
					if !ok {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						report(Diagnostic{
							Check: "pragma",
							Pos:   pos,
							Message: fmt.Sprintf("malformed %q pragma: want //%s <check> <reason>",
								pragmaPrefix, pragmaPrefix),
						})
						continue
					}
					pragmas = append(pragmas, &pragma{check: fields[0], file: pos.Filename, line: pos.Line})
				}
			}
		}
	}
	return pragmas
}

// Run executes the analyzers over the module and returns the
// unsuppressed diagnostics sorted by position. A pragma suppresses
// only diagnostics of its named check on its own line or the line
// below; pragmas that suppress nothing are reported as unused, so
// stale exemptions cannot linger after the code they excused is gone.
func Run(mod *Module, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	pragmas := collectPragmas(mod, func(d Diagnostic) { all = append(all, d) })
	for _, a := range analyzers {
		a.Run(&Pass{Module: mod, Config: cfg, report: func(d Diagnostic) {
			d.Check = a.Name
			all = append(all, d)
		}})
	}

	kept := all[:0]
	for _, d := range all {
		suppressed := false
		for _, pr := range pragmas {
			if pr.check == d.Check && pr.file == d.Pos.Filename &&
				(pr.line == d.Pos.Line || pr.line == d.Pos.Line-1) {
				pr.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, pr := range pragmas {
		if !pr.used {
			kept = append(kept, Diagnostic{
				Check:   "pragma",
				Pos:     token.Position{Filename: pr.file, Line: pr.line, Column: 1},
				Message: fmt.Sprintf("unused pragma: no %q diagnostic on this or the next line", pr.check),
			})
		}
	}
	// The full sort (position, check, then message) is load-bearing:
	// wiredispatch anchors several findings on one switch position and
	// sort.Slice is unstable, so a partial key would vary run to run.
	sort.Slice(kept, func(i, j int) bool { return diagnosticLess(kept[i], kept[j]) })
	return kept
}
