package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
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

// The standard library is type-checked from GOROOT/src by the "source"
// importer — by far the most expensive part of a load — so one
// importer (and the FileSet it is bound to) is shared by every module
// load in the process. Loads run one at a time, so neither is guarded.
var (
	stdFset *token.FileSet
	stdImp  types.ImporterFrom
)

func sharedStd() (*token.FileSet, types.ImporterFrom) {
	if stdImp == nil {
		// With cgo disabled the pure-Go fallbacks (e.g. package net's
		// netgo path) are selected, keeping the load toolchain-independent.
		build.Default.CgoEnabled = false
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	}
	return stdFset, stdImp
}

// Load discovers, parses, and type-checks every package of the module
// rooted at dir (the directory containing go.mod, or any directory
// below it). Files are selected the way go/build selects them from the
// environment: for the host platform, or for $GOOS when it is set, so
// `GOOS=windows natlint` analyzes the Windows files against the
// Windows standard library. Test files (_test.go) and testdata trees
// are excluded: natlint's invariants govern shipped code, and tests
// legitimately use wall-clock time.
//
// Packages that fail to parse or type-check are reported as "load"
// diagnostics (their dependents as one "skipped" diagnostic each) and
// omitted from the module, so one broken package does not abort the
// whole run; err is reserved for environmental failures (no module,
// unreadable tree).
func Load(dir string) (*Module, []Diagnostic, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	fset, std := sharedStd()
	ld := &loader{
		mod: &Module{
			Path:     modPath,
			Dir:      root,
			Fset:     fset,
			Packages: make(map[string]*Package),
		},
		std:    std,
		dirs:   make(map[string]string),
		files:  make(map[string][]string),
		asts:   make(map[string][]*ast.File),
		deps:   make(map[string][]string),
		failed: make(map[string]string),
	}
	if err := ld.discover(); err != nil {
		return nil, nil, err
	}
	ld.parseAll()
	ld.collectDeps()
	ld.checkAll()
	sortDiagnostics(ld.diags)
	return ld.mod, ld.diags, nil
}

// loader drives one module load: file discovery, parse, and a
// dependency-ordered type-check.
type loader struct {
	mod *Module
	std types.ImporterFrom

	dirs  map[string]string   // import path -> source dir
	files map[string][]string // import path -> sorted file names
	asts  map[string][]*ast.File
	deps  map[string][]string // module-local imports

	diags  []Diagnostic
	failed map[string]string // path -> why ("" means not failed)
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

// discover maps every directory under the module root holding
// non-test Go sources to its import path. testdata trees, hidden
// directories, and nested modules are skipped, mirroring the go tool.
func (ld *loader) discover() error {
	return filepath.WalkDir(ld.mod.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ld.mod.Dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		files, err := ld.sourceFiles(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(ld.mod.Dir, path)
		if err != nil {
			return err
		}
		imp := ld.mod.Path
		if rel != "." {
			imp = ld.mod.Path + "/" + filepath.ToSlash(rel)
		}
		ld.dirs[imp] = path
		ld.files[imp] = files
		return nil
	})
}

// sourceFiles lists dir's buildable non-test Go files, applying build
// constraints (file suffixes and //go:build lines) as go/build does,
// so e.g. exactly one of batch_linux.go / batch_other.go is selected.
func (ld *loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") ||
			strings.HasPrefix(name, "_") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files)
	return files, nil
}

// sortedPaths returns the discovered import paths in canonical order.
func (ld *loader) sortedPaths() []string {
	paths := make([]string, 0, len(ld.dirs))
	for p := range ld.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// parseAll parses every package. Parse failures mark the package
// failed with "load" diagnostics.
func (ld *loader) parseAll() {
paths:
	for _, path := range ld.sortedPaths() {
		var files []*ast.File
		for _, name := range ld.files[path] {
			f, err := parser.ParseFile(ld.mod.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				ld.failed[path] = "parse error"
				ld.reportLoadErr(path, err)
				continue paths
			}
			files = append(files, f)
		}
		ld.asts[path] = files
	}
}

// reportLoadErr renders a parse or type error as "load" diagnostics.
func (ld *loader) reportLoadErr(path string, err error) {
	switch e := err.(type) {
	case scanner.ErrorList:
		for i, pe := range e {
			if i == maxLoadErrs {
				ld.diags = append(ld.diags, Diagnostic{
					Check:   "load",
					Pos:     token.Position{Filename: pe.Pos.Filename, Line: pe.Pos.Line, Column: pe.Pos.Column},
					Message: fmt.Sprintf("package %s: %d more parse errors omitted", path, len(e)-maxLoadErrs),
				})
				break
			}
			ld.diags = append(ld.diags, Diagnostic{
				Check:   "load",
				Pos:     token.Position{Filename: pe.Pos.Filename, Line: pe.Pos.Line, Column: pe.Pos.Column},
				Message: fmt.Sprintf("package %s: %s", path, pe.Msg),
			})
		}
	case types.Error:
		ld.diags = append(ld.diags, Diagnostic{
			Check:   "load",
			Pos:     e.Fset.Position(e.Pos),
			Message: fmt.Sprintf("package %s: %s", path, e.Msg),
		})
	default:
		ld.diags = append(ld.diags, Diagnostic{
			Check:   "load",
			Pos:     token.Position{Filename: filepath.Join(ld.dirs[path], "")},
			Message: fmt.Sprintf("package %s: %v", path, err),
		})
	}
}

// maxLoadErrs caps per-package load diagnostics so one rotten file
// doesn't drown the report.
const maxLoadErrs = 8

// collectDeps records each package's module-local imports.
func (ld *loader) collectDeps() {
	for path, files := range ld.asts {
		seen := make(map[string]bool)
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if (p == ld.mod.Path || strings.HasPrefix(p, ld.mod.Path+"/")) && !seen[p] {
					seen[p] = true
					ld.deps[path] = append(ld.deps[path], p)
				}
			}
		}
		sort.Strings(ld.deps[path])
	}
}

// checkAll type-checks every package after its module-local deps, in
// one depth-first walk from the sorted paths. The walk doubles as
// cycle detection: an import edge back onto the walk's stack fails
// every package from that dep to the top as an import cycle, before
// any of them is checked.
func (ld *loader) checkAll() {
	state := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var stack []string
	var visit func(path string)
	visit = func(path string) {
		state[path] = 1
		stack = append(stack, path)
		for _, dep := range ld.deps[path] {
			if _, known := ld.dirs[dep]; !known {
				continue
			}
			switch state[dep] {
			case 0:
				visit(dep)
			case 1:
				// Everything from dep to the top of the stack cycles.
				for i := len(stack) - 1; i >= 0; i-- {
					p := stack[i]
					if ld.failed[p] == "" {
						ld.failed[p] = "import cycle"
						ld.diags = append(ld.diags, Diagnostic{
							Check:   "load",
							Pos:     token.Position{Filename: filepath.Join(ld.dirs[p], "")},
							Message: fmt.Sprintf("package %s: import cycle through %s", p, dep),
						})
					}
					if p == dep {
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[path] = 2
		ld.checkOne(path)
	}
	for _, path := range ld.sortedPaths() {
		if state[path] == 0 {
			visit(path)
		}
	}
}

// checkOne type-checks a single package whose deps are all settled.
func (ld *loader) checkOne(path string) {
	if ld.failed[path] != "" {
		return
	}
	// A failed dependency fails this package with one diagnostic,
	// anchored at the import of the broken dep.
	for _, dep := range ld.deps[path] {
		if why := ld.failed[dep]; why != "" {
			ld.failed[path] = "broken dependency"
			pos := token.Position{Filename: filepath.Join(ld.dirs[path], "")}
			for _, f := range ld.asts[path] {
				for _, imp := range f.Imports {
					if strings.Trim(imp.Path.Value, `"`) == dep {
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
				Message: fmt.Sprintf("package %s: skipped: depends on broken package %s (%s)", path, dep, why),
			})
			return
		}
	}
	files := ld.asts[path]

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
	tpkg, err := conf.Check(path, ld.mod.Fset, files, info)
	if len(terrs) > 0 || err != nil {
		ld.failed[path] = "type error"
		if len(terrs) == 0 {
			terrs = []error{err}
		}
		for i, te := range terrs {
			if i == maxLoadErrs {
				ld.diags = append(ld.diags, Diagnostic{
					Check:   "load",
					Pos:     token.Position{Filename: filepath.Join(ld.dirs[path], "")},
					Message: fmt.Sprintf("package %s: %d more type errors omitted", path, len(terrs)-maxLoadErrs),
				})
				break
			}
			ld.reportLoadErr(path, te)
		}
		return
	}
	ld.mod.Packages[path] = &Package{Path: path, Dir: ld.dirs[path], Files: files, Types: tpkg, Info: info}
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, ld.mod.Dir, 0)
}

// ImportFrom implements types.ImporterFrom: module-local imports were
// checked before this package; all others resolve as standard library
// through the shared source importer.
func (ld *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == ld.mod.Path || strings.HasPrefix(path, ld.mod.Path+"/") {
		pkg, ok := ld.mod.Packages[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no package %s in module %s", path, ld.mod.Path)
		}
		return pkg.Types, nil
	}
	return ld.std.ImportFrom(path, srcDir, mode)
}

// sortDiagnostics orders diagnostics by position, check, and message —
// the stable order every emitter relies on.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		return DiagnosticLess(diags[i], diags[j])
	})
}
