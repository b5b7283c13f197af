package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package of the
// module under analysis.
type Package struct {
	// Path is the package's import path ("natpunch/internal/proto").
	Path string
	// Dir is the absolute directory holding the package's sources.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Module is the full load result: every package in one Go module,
// type-checked against a shared FileSet so cross-package type
// identities (e.g. proto.Type seen from internal/rendezvous) compare
// by pointer.
type Module struct {
	// Path is the module path from go.mod ("natpunch").
	Path string
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Packages maps import path -> package, one entry per directory
	// with non-test Go sources that type-checked cleanly. Broken
	// packages are absent here and reported as "load" diagnostics.
	Packages map[string]*Package
}

// Sorted returns the module's packages in import-path order, the
// canonical iteration order for deterministic diagnostics.
func (m *Module) Sorted() []*Package {
	paths := make([]string, 0, len(m.Packages))
	for p := range m.Packages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, len(paths))
	for i, p := range paths {
		pkgs[i] = m.Packages[p]
	}
	return pkgs
}

// Load parses and type-checks every package of the module rooted at
// dir (the directory containing go.mod, or any directory below it).
// One `go list` run at the module root says what to load, so files
// are selected as the go command selects them: for the host platform,
// or for $GOOS when it is set, so `GOOS=windows natlint` analyzes the
// Windows files against the Windows standard library. The standard
// library is imported from the export data go list finds or builds in
// the build cache; the module's own packages are type-checked from
// source, because the analyzers need their syntax trees. Test files
// (_test.go) and testdata trees are excluded: natlint's invariants
// govern shipped code, and tests legitimately use wall-clock time.
//
// Packages that fail to parse or type-check are reported as "load"
// diagnostics (their dependents as one "skipped" diagnostic each) and
// omitted from the module, so one broken package does not abort the
// whole run; err is reserved for environmental failures (no module,
// no go command).
func Load(dir string) (*Module, []Diagnostic, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	listed, err := goList(root)
	if err != nil {
		return nil, nil, err
	}
	ld := &loader{
		mod: &Module{
			Path:     modPath,
			Dir:      root,
			Fset:     token.NewFileSet(),
			Packages: make(map[string]*Package),
		},
		pkgs: make(map[string]*listedPackage),
	}
	export := make(map[string]string) // import path -> export data file
	for _, p := range listed {
		switch {
		case !ld.inModule(p.ImportPath):
			export[p.ImportPath] = p.Export
		case len(p.GoFiles) > 0:
			ld.pkgs[p.ImportPath] = p
			ld.sorted = append(ld.sorted, p)
		}
	}
	sort.Slice(ld.sorted, func(i, j int) bool { return ld.sorted[i].ImportPath < ld.sorted[j].ImportPath })
	ld.std = importer.ForCompiler(ld.mod.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	ld.parseAll()
	ld.checkAll()
	sortDiagnostics(ld.diags)
	return ld.mod, ld.diags, nil
}

// listedPackage is one package as `go list -json` describes it, plus
// what the loader learns about it.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string // file names in Dir, build constraints applied
	Imports    []string // sorted
	Export     string   // export data file

	files  []*ast.File
	failed string // why the package did not load ("" if it did)
}

// goList runs `go list` at the module root over every package of the
// module and everything they import. -e keeps a package that does not
// type-check (or imports what does not exist) in the listing instead
// of failing the command: the loader reports those itself.
func goList(root string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Imports,Export", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w\n%s", err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("analysis: go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loader drives one module load: parse, then a dependency-ordered
// type-check.
type loader struct {
	mod    *Module
	std    types.Importer
	pkgs   map[string]*listedPackage // the module's packages with Go files
	sorted []*listedPackage          // the same, in import-path order
	diags  []Diagnostic
}

func (ld *loader) inModule(path string) bool {
	return path == ld.mod.Path || strings.HasPrefix(path, ld.mod.Path+"/")
}

// findModule walks up from dir to the enclosing go.mod and returns
// the module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
	}
}

// parseAll parses every package. Parse failures mark the package
// failed with "load" diagnostics.
func (ld *loader) parseAll() {
	for _, p := range ld.sorted {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(ld.mod.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				p.failed = "parse error"
				ld.reportLoadErr(p, err)
				break
			}
			p.files = append(p.files, f)
		}
	}
}

// reportLoadErr renders a parse or type error as "load" diagnostics.
func (ld *loader) reportLoadErr(p *listedPackage, err error) {
	switch e := err.(type) {
	case scanner.ErrorList:
		for i, pe := range e {
			if i == maxLoadErrs {
				ld.diags = append(ld.diags, Diagnostic{
					Check:   "load",
					Pos:     token.Position{Filename: pe.Pos.Filename, Line: pe.Pos.Line, Column: pe.Pos.Column},
					Message: fmt.Sprintf("package %s: %d more parse errors omitted", p.ImportPath, len(e)-maxLoadErrs),
				})
				break
			}
			ld.diags = append(ld.diags, Diagnostic{
				Check:   "load",
				Pos:     token.Position{Filename: pe.Pos.Filename, Line: pe.Pos.Line, Column: pe.Pos.Column},
				Message: fmt.Sprintf("package %s: %s", p.ImportPath, pe.Msg),
			})
		}
	case types.Error:
		ld.diags = append(ld.diags, Diagnostic{
			Check:   "load",
			Pos:     e.Fset.Position(e.Pos),
			Message: fmt.Sprintf("package %s: %s", p.ImportPath, e.Msg),
		})
	default:
		ld.diags = append(ld.diags, Diagnostic{
			Check:   "load",
			Pos:     token.Position{Filename: p.Dir},
			Message: fmt.Sprintf("package %s: %v", p.ImportPath, err),
		})
	}
}

// maxLoadErrs caps per-package load diagnostics so one rotten file
// doesn't drown the report.
const maxLoadErrs = 8

// deps returns the module packages p imports, in import-path order.
// A package that failed to parse is not followed, so its dependents
// report it as broken rather than as part of a cycle.
func (ld *loader) deps(p *listedPackage) []*listedPackage {
	if p.failed != "" {
		return nil
	}
	var deps []*listedPackage
	for _, imp := range p.Imports {
		if dep := ld.pkgs[imp]; dep != nil {
			deps = append(deps, dep)
		}
	}
	return deps
}

// checkAll type-checks every package after its module-local deps, in
// one depth-first walk from the sorted paths. The walk doubles as
// cycle detection: an import edge back onto the walk's stack fails
// every package from that dep to the top as an import cycle, before
// any of them is checked.
func (ld *loader) checkAll() {
	state := make(map[*listedPackage]int) // 0 unvisited, 1 on stack, 2 done
	var stack []*listedPackage
	var visit func(p *listedPackage)
	visit = func(p *listedPackage) {
		state[p] = 1
		stack = append(stack, p)
		for _, dep := range ld.deps(p) {
			switch state[dep] {
			case 0:
				visit(dep)
			case 1:
				// Everything from dep to the top of the stack cycles.
				for i := len(stack) - 1; i >= 0; i-- {
					q := stack[i]
					if q.failed == "" {
						q.failed = "import cycle"
						ld.diags = append(ld.diags, Diagnostic{
							Check:   "load",
							Pos:     token.Position{Filename: q.Dir},
							Message: fmt.Sprintf("package %s: import cycle through %s", q.ImportPath, dep.ImportPath),
						})
					}
					if q == dep {
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[p] = 2
		ld.checkOne(p)
	}
	for _, p := range ld.sorted {
		if state[p] == 0 {
			visit(p)
		}
	}
}

// checkOne type-checks a single package whose deps are all settled.
func (ld *loader) checkOne(p *listedPackage) {
	if p.failed != "" {
		return
	}
	// A failed dependency fails this package with one diagnostic,
	// anchored at the import of the broken dep.
	for _, dep := range ld.deps(p) {
		if dep.failed == "" {
			continue
		}
		p.failed = "broken dependency"
		pos := token.Position{Filename: p.Dir}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == dep.ImportPath {
					pos = ld.mod.Fset.Position(imp.Pos())
				}
			}
			if pos.Line != 0 {
				break
			}
		}
		ld.diags = append(ld.diags, Diagnostic{
			Check:   "load",
			Pos:     pos,
			Message: fmt.Sprintf("package %s: skipped: depends on broken package %s (%s)", p.ImportPath, dep.ImportPath, dep.failed),
		})
		return
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var terrs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, err := conf.Check(p.ImportPath, ld.mod.Fset, p.files, info)
	if len(terrs) > 0 || err != nil {
		p.failed = "type error"
		if len(terrs) == 0 {
			terrs = []error{err}
		}
		for i, te := range terrs {
			if i == maxLoadErrs {
				ld.diags = append(ld.diags, Diagnostic{
					Check:   "load",
					Pos:     token.Position{Filename: p.Dir},
					Message: fmt.Sprintf("package %s: %d more type errors omitted", p.ImportPath, len(terrs)-maxLoadErrs),
				})
				break
			}
			ld.reportLoadErr(p, te)
		}
		return
	}
	ld.mod.Packages[p.ImportPath] = &Package{Path: p.ImportPath, Dir: p.Dir, Files: p.files, Types: tpkg, Info: info}
}

// Import implements types.Importer: module-local imports were checked
// before this package; all others come from the standard library's
// export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	if ld.inModule(path) {
		pkg, ok := ld.mod.Packages[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no package %s in module %s", path, ld.mod.Path)
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

// sortDiagnostics orders diagnostics by position, check, and message —
// the stable order every emitter relies on.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		return DiagnosticLess(diags[i], diags[j])
	})
}
