package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
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
	// with non-test Go sources.
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
// A module that does not build fails the load: the error carries the
// go command's own report (the compiler's file:line, or "import cycle
// not allowed").
func Load(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	listed, err := goList(root)
	if err != nil {
		return nil, err
	}
	ld := &loader{mod: &Module{
		Path:     modPath,
		Dir:      root,
		Fset:     token.NewFileSet(),
		Packages: make(map[string]*Package),
	}}
	export := make(map[string]string) // import path -> export data file
	ld.std = importer.ForCompiler(ld.mod.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	// -deps lists every package after its dependencies, so a module
	// package finds what it imports already checked or recorded.
	for _, p := range listed {
		switch {
		case !ld.inModule(p.ImportPath):
			export[p.ImportPath] = p.Export
		case len(p.GoFiles) > 0:
			if err := ld.check(p); err != nil {
				return nil, err
			}
		}
	}
	return ld.mod, nil
}

// listedPackage is one package as `go list -json` describes it.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string // file names in Dir, build constraints applied
	Export     string   // export data file
}

// goList runs `go list` at the module root over every package of the
// module and everything they import. -export builds each package, so
// a module that does not compile fails here with the go command's
// error.
func goList(root string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export", "./...")
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

// loader drives one module load.
type loader struct {
	mod *Module
	std types.Importer
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

// check parses and type-checks one package whose module-local
// dependencies are already in the module.
func (ld *loader) check(p *listedPackage) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(ld.mod.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := (&types.Config{Importer: ld}).Check(p.ImportPath, ld.mod.Fset, files, info)
	if err != nil {
		return fmt.Errorf("analysis: package %s: %w", p.ImportPath, err)
	}
	ld.mod.Packages[p.ImportPath] = &Package{Path: p.ImportPath, Dir: p.Dir, Files: files, Types: tpkg, Info: info}
	return nil
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
