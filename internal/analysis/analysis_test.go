package analysis

import (
	"fmt"
	"go/build"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// Fixture tests: each testdata/src/<name> tree is a self-contained
// module with known-bad and known-good files. Expected diagnostics
// are pinned to file:line by `// want <check> "<substr>"` comments in
// the fixture sources (extras cover diagnostics anchored in non-Go
// files); the harness requires an exact two-way match.

type extraWant struct {
	file   string // fixture-relative path
	line   int
	check  string
	substr string
}

var wantRe = regexp.MustCompile(`want (\w+) "([^"]+)"`)

// loadFixture loads testdata/src/<name>; every fixture module must
// build.
func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	mod, err := Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return mod
}

func runFixture(t *testing.T, name string, cfg *Config, analyzers []*Analyzer, extras ...extraWant) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	mod := loadFixture(t, name)
	diags := Run(mod, cfg, analyzers)

	type want struct {
		check, substr string
		matched       bool
	}
	wants := make(map[string][]*want)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", rel, i+1)
				wants[key] = append(wants[key], &want{check: m[1], substr: m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range extras {
		key := fmt.Sprintf("%s:%d", e.file, e.line)
		wants[key] = append(wants[key], &want{check: e.check, substr: e.substr})
	}

	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		rel, err := filepath.Rel(absDir, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.check == d.Check && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing diagnostic at %s: [%s] ~%q", key, w.check, w.substr)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism",
		&Config{EnginePackages: []string{"detfix/engine"}},
		[]*Analyzer{Determinism})
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, "maporder",
		&Config{WirePackages: []string{"mapfix/wire"}},
		[]*Analyzer{MapOrder})
}

func TestLayeringFixture(t *testing.T) {
	runFixture(t, "layering",
		&Config{APIDoc: "docs/API.md", InternalAllowedPublic: []string{"layfix/seam"}},
		[]*Analyzer{Layering},
		// The stale pinned edge is anchored in the fixture's API doc.
		extraWant{file: "docs/API.md", line: 9, check: "layering", substr: "stale"})
}

func TestWireDispatchFixture(t *testing.T) {
	runFixture(t, "wiredispatch",
		&Config{ProtoPackage: "wirefix/proto", DispatchPackages: []string{"wirefix/server"}},
		[]*Analyzer{WireDispatch})
}

func bufOwnFixtureConfig() *Config {
	return &Config{
		BufOwnPackages: []string{"buffix/..."},
		MessageTypes:   []string{"buffix/proto.Message", "buffix/stream.Frame"},
		ScratchFields: []string{
			"buffix/server.Server.enc",
			"buffix/server.Server.fedScratch",
			"buffix/server.Server.scratchMsg",
		},
	}
}

func TestBufOwnFixture(t *testing.T) {
	runFixture(t, "bufown", bufOwnFixtureConfig(), []*Analyzer{BufOwn})
}

func TestGoLifecycleFixture(t *testing.T) {
	runFixture(t, "golifecycle",
		&Config{LifecyclePackages: []string{"lifefix/..."}},
		[]*Analyzer{GoLifecycle})
}

// TestCatchesHistoricalBugs pins an analyzer to the shipped bug it
// exists to prevent, replayed faithfully in the fixtures: the PR-7
// leak class, a pump goroutine with no shutdown tie and a
// set-and-forget read-deadline timer (golifecycle).
//
// PR 8's Conn.closed race (an atomic store in Close against a plain
// read in the read loop) has no row: the field is a typed atomic.Bool,
// which has no plain access to mix in, vet's copylocks check flags a
// copy of it, and CI's realudp -race steps run the read loop against
// Close.
//
// If a refactor of an analyzer stops flagging its replay, this test —
// not just a fixture golden — fails by name.
func TestCatchesHistoricalBugs(t *testing.T) {
	find := func(t *testing.T, fixture string, cfg *Config, a *Analyzer, file, substr string) {
		t.Helper()
		for _, d := range Run(loadFixture(t, fixture), cfg, []*Analyzer{a}) {
			if strings.HasSuffix(filepath.ToSlash(d.Pos.Filename), file) && strings.Contains(d.Message, substr) {
				return
			}
		}
		t.Errorf("[%s] did not re-detect its historical bug: want a diagnostic in %s containing %q", a.Name, file, substr)
	}
	find(t, "golifecycle", &Config{LifecyclePackages: []string{"lifefix/..."}}, GoLifecycle,
		"engine/engine.go", "no tie to a shutdown path")
	find(t, "golifecycle", &Config{LifecyclePackages: []string{"lifefix/..."}}, GoLifecycle,
		"engine/timer.go", "stale read-deadline")
}

// TestPragmaScope pins the suppression semantics: a pragma suppresses
// exactly its named check on its own line and the next — the maporder
// violation sharing the pragma's line survives, the determinism
// violation on the next line is excused — and malformed or unused
// pragmas are themselves diagnosed.
func TestPragmaScope(t *testing.T) {
	mod := loadFixture(t, "pragma")
	cfg := &Config{
		EnginePackages: []string{"pragfix/mixed"},
		WirePackages:   []string{"pragfix/mixed"},
	}
	diags := Run(mod, cfg, []*Analyzer{Determinism, MapOrder})
	byCheck := make(map[string][]Diagnostic)
	for _, d := range diags {
		byCheck[d.Check] = append(byCheck[d.Check], d)
	}
	if n := len(byCheck["determinism"]); n != 0 {
		t.Errorf("determinism should be suppressed by the pragma, got %d: %v", n, byCheck["determinism"])
	}
	if n := len(byCheck["maporder"]); n != 1 {
		t.Fatalf("maporder on the pragma's own line must survive (pragma names determinism), got %d", n)
	}
	if n := len(byCheck["pragma"]); n != 2 {
		t.Fatalf("want 2 pragma diagnostics (malformed + unused), got %d: %v", n, byCheck["pragma"])
	}
	msgs := byCheck["pragma"][0].Message + " / " + byCheck["pragma"][1].Message
	if !strings.Contains(msgs, "malformed") || !strings.Contains(msgs, "unused") {
		t.Errorf("pragma diagnostics should cover malformed and unused, got: %s", msgs)
	}
	// The surviving maporder diagnostic sits on the same line as the
	// suppressing pragma — exactness of the check-name match.
	mo := byCheck["maporder"][0]
	data, err := os.ReadFile(mo.Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.Split(string(data), "\n")[mo.Pos.Line-1]
	if !strings.Contains(line, "natlint:ignore determinism") {
		t.Errorf("maporder diagnostic expected on the pragma line, got line %d: %q", mo.Pos.Line, line)
	}
}

// TestDiagnosticLessNumeric pins that the stable emitter order sorts
// positions numerically: file.go:9 orders before file.go:10, which a
// lexical sort over Diagnostic.String() keys would invert.
func TestDiagnosticLessNumeric(t *testing.T) {
	at := func(file string, line, col int) Diagnostic {
		d := Diagnostic{Check: "x", Message: "m"}
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, col
		return d
	}
	ordered := []struct {
		a, b Diagnostic
	}{
		{at("file.go", 9, 1), at("file.go", 10, 1)},
		{at("file.go", 2, 9), at("file.go", 2, 10)},
		{at("a.go", 99, 1), at("b.go", 1, 1)},
	}
	for _, pair := range ordered {
		if !diagnosticLess(pair.a, pair.b) {
			t.Errorf("diagnosticLess(%s, %s) = false, want true", pair.a, pair.b)
		}
		if diagnosticLess(pair.b, pair.a) {
			t.Errorf("diagnosticLess(%s, %s) = true, want false", pair.b, pair.a)
		}
	}
}

// TestLoadWithoutGoCommand pins that the go command is a requirement,
// not an option: without it Load fails with an error naming go list
// instead of returning an empty module.
func TestLoadWithoutGoCommand(t *testing.T) {
	t.Setenv("PATH", "")
	mod, err := Load(filepath.Join("testdata", "src", "determinism"))
	if err == nil || !strings.Contains(err.Error(), "go list") {
		t.Fatalf("Load without go on PATH: err = %v, module = %v; want an error naming go list", err, mod)
	}
}

// writeModule writes a module of the given files (path -> source)
// into a temporary directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadMissingStdImport pins that an import of a standard path that
// does not exist fails the load with an error naming the path.
func TestLoadMissingStdImport(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module missfix\n\ngo 1.24\n",
		"p/p.go":   "package p\n\nimport _ \"nosuch/pkg\"\n",
		"ok/ok.go": "package ok\n",
	})
	mod, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "nosuch/pkg") {
		t.Fatalf("Load: err = %v, module = %v; want an error naming nosuch/pkg", err, mod)
	}
}

// TestLoadTypeError pins that a module package that does not
// type-check fails the load with the go command's file:line for it.
func TestLoadTypeError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     "module badfix\n\ngo 1.24\n",
		"bad/bad.go": "package bad\n\nvar X string = 42\n",
		"ok/ok.go":   "package ok\n",
	})
	mod, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "bad/bad.go:3:16: cannot use 42") {
		t.Fatalf("Load: err = %v, module = %v; want the go command's bad/bad.go:3:16 type error", err, mod)
	}
}

// TestLoadFromSubdirectory pins that Load below the module root loads
// the whole module, as natlint run from a subdirectory must.
func TestLoadFromSubdirectory(t *testing.T) {
	root := filepath.Join("testdata", "src", "determinism")
	whole, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Load(filepath.Join(root, "engine"))
	if err != nil {
		t.Fatal(err)
	}
	paths := func(m *Module) (ps []string) {
		for _, p := range m.Sorted() {
			ps = append(ps, p.Path)
		}
		return ps
	}
	if got, want := fmt.Sprint(paths(sub)), fmt.Sprint(paths(whole)); got != want || len(whole.Packages) != 2 {
		t.Errorf("packages from a subdirectory = %s, want %s (both of the fixture's)", got, want)
	}
	if sub.Dir != whole.Dir {
		t.Errorf("module root from a subdirectory = %s, want %s", sub.Dir, whole.Dir)
	}
}

// TestRepoClean is the gate the CI stage runs: the repository itself
// must load and be free of unsuppressed findings
// under the real config. It checks the files the go command selects for
// the host, then re-runs itself with GOOS=darwin, which selects the !linux
// data-plane file (realudp's batch_other.go) and type-checks it against
// darwin's standard library, so no finding hides behind the host's GOOS.
func TestRepoClean(t *testing.T) {
	goos := build.Default.GOOS
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("GOOS=%s: %v", goos, err)
	}
	if mod.Path != "natpunch" {
		t.Fatalf("expected to load the natpunch module, got %q", mod.Path)
	}
	for _, d := range Run(mod, DefaultConfig(), Analyzers()) {
		t.Errorf("GOOS=%s: %s", goos, d)
	}

	// The load must have selected exactly the data-plane file for goos.
	ru, ok := mod.Packages["natpunch/realudp"]
	if !ok {
		t.Fatalf("GOOS=%s: natpunch/realudp did not load", goos)
	}
	selected := make(map[string]bool)
	for _, f := range ru.Files {
		selected[filepath.Base(mod.Fset.Position(f.Package).Filename)] = true
	}
	want, notWant := "batch_other.go", "batch_linux.go"
	if goos == "linux" {
		want, notWant = notWant, want
	}
	if !selected[want] || selected[notWant] {
		t.Errorf("GOOS=%s file selection wrong: %s in=%v, %s in=%v",
			goos, want, selected[want], notWant, selected[notWant])
	}

	if goos != runtime.GOOS || goos == "darwin" {
		return // this is the child (or the host already is darwin)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRepoClean$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GOOS=darwin")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestRepoClean") {
		t.Errorf("GOOS=darwin run failed: %v\n%s", err, out)
	}
}
