package analysis

import (
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestInjectedViolationGates demonstrates the CI gate end to end: a
// module that sneaks a determinism violation into a deterministic
// package produces outstanding diagnostics, which is exactly the
// condition under which mpg-lint exits 1.
func TestInjectedViolationGates(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module mpgraph\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "core", "bad.go"), `
package core

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`)
	res, err := Run(dir, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := res.Outstanding()
	if len(out) != 1 {
		t.Fatalf("got %d outstanding diagnostics, want 1:\n%s", len(out), formatDiags(out))
	}
	if out[0].Analyzer != "detreach" || out[0].File != "internal/core/bad.go" {
		t.Errorf("unexpected diagnostic: %+v", out[0])
	}
}

// TestInjectedInterprocViolationsGate is the CI gate for the
// call-graph analyzers: a module that hides an allocation behind a
// call from a hot-path root, reads the wall clock in a helper package
// the replay kernel calls, and copies a mutex in the parallel package
// must produce one outstanding finding per analyzer.
func TestInjectedInterprocViolationsGate(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module mpgraph\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "core", "replay.go"), `
package core

import "mpgraph/internal/clock"

//mpg:hotpath
func ReplayCompiled() []float64 { return expand(4) }

func expand(n int) []float64 { return grow(n) }

func grow(n int) []float64 {
	clock.ObserveDeadline()
	return make([]float64, n)
}
`)
	writeFile(t, filepath.Join(dir, "internal", "clock", "clock.go"), `
package clock

import "time"

func ObserveDeadline() { _ = time.Now() }
`)
	writeFile(t, filepath.Join(dir, "internal", "parallel", "pool.go"), `
package parallel

import "sync"

type workerPool struct {
	mu sync.Mutex
}

func (p workerPool) drain() {}
`)
	res, err := Run(dir, Config{Analyzers: []*Analyzer{
		HotPathPropAnalyzer, DetReachAnalyzer, ConcDisciplineAnalyzer,
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byAnalyzer := map[string][]string{}
	for _, d := range res.Outstanding() {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d.Message)
	}
	wantContains := map[string]string{
		"hotpathprop":    "core.ReplayCompiled → core.expand → core.grow: make allocates",
		"detreach":       "core.grow → clock.ObserveDeadline: time.Now on a replay-reachable path",
		"concdiscipline": "method drain copies its receiver workerPool, which contains sync.Mutex (field mu); use a pointer receiver",
	}
	for analyzer, want := range wantContains {
		found := false
		for _, msg := range byAnalyzer[analyzer] {
			if strings.Contains(msg, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no outstanding finding containing %q; got %q", analyzer, want, byAnalyzer[analyzer])
		}
	}
}

// TestTypeErrorIsLoadError: packages are type-checked strictly
// against the real standard library, so a type error — here a call
// to a function the time package does not have — fails the load with
// the error's file:line instead of degrading the analysis.
func TestTypeErrorIsLoadError(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module mpgraph\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "core", "bad.go"), `package core

import "time"

func stamp() int64 { return time.Nowish().UnixNano() }
`)
	_, err := Run(dir, Config{})
	if err == nil {
		t.Fatal("Run succeeded on a package with a type error")
	}
	if want := "internal/core/bad.go:5:"; !strings.Contains(err.Error(), want) {
		t.Errorf("load error %q does not name %s", err, want)
	}
}

// TestImportCycleIsLoadError: Go forbids import cycles, so a cycle
// between module packages fails the load.
func TestImportCycleIsLoadError(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module mpgraph\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a", "a.go"), "package a\n\nimport _ \"mpgraph/b\"\n")
	writeFile(t, filepath.Join(dir, "b", "b.go"), "package b\n\nimport _ \"mpgraph/a\"\n")
	_, err := Run(dir, Config{})
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("Run error = %v, want an import cycle", err)
	}
}

// TestLoadersShareStdlibConcurrently: every Loader shares one
// standard-library importer, so Loaders used from several goroutines
// at once must serialize it (run under -race).
func TestLoadersShareStdlibConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := NewLoader(".")
			if err == nil {
				_, err = l.CheckSource(detScope, "internal/core/fixture/std.go", `package fixture

import (
	"strings"
	"sync"
)

var mu sync.Mutex

func Join(xs []string) string {
	mu.Lock()
	defer mu.Unlock()
	return strings.Join(xs, ",")
}
`)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("loader %d: %v", i, err)
		}
	}
}

// TestRepositoryClean is the acceptance criterion: the full suite over
// the real module reports nothing outstanding.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	res, err := Run(".", Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out := res.Outstanding(); len(out) != 0 {
		t.Errorf("repository is not lint-clean:\n%s", formatDiags(out))
	}
}

// TestSubsetRunsAgreeWithModule: the verdict does not depend on the
// patterns. Linted alone, internal/core, internal/obsv and
// internal/parallel report exactly the whole-module diagnostics in
// their files, though their pruning directives excuse calls made from
// other packages. And the per-package results over every module
// package add up to the whole-module result.
func TestSubsetRunsAgreeWithModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	full := RunPackages(pkgs, Config{})
	var union []Diagnostic
	for _, pkg := range pkgs {
		sub, err := full.pick(l.Root, pkgs, []string{"./" + pkg.Dir})
		if err != nil || sub.Packages != 1 {
			t.Fatalf("pattern ./%s: %v; want exactly package %s", pkg.Dir, err, pkg.ImportPath)
		}
		union = append(union, sub.Diagnostics...)
	}
	sortDiagnostics(union)
	if !reflect.DeepEqual(union, full.Diagnostics) {
		t.Errorf("per-package results hold %d diagnostics, the whole module %d", len(union), len(full.Diagnostics))
	}
	for _, dir := range []string{"internal/core", "internal/obsv", "internal/parallel"} {
		sub, err := Run(".", Config{Patterns: []string{"./" + dir}})
		if err != nil {
			t.Fatalf("Run ./%s: %v", dir, err)
		}
		var want []Diagnostic
		for _, d := range full.Diagnostics {
			if path.Dir(d.File) == dir {
				want = append(want, d)
			}
		}
		if sub.Packages != 1 || !reflect.DeepEqual(sub.Diagnostics, want) {
			t.Errorf("./%s: %d packages, diagnostics\n%swant 1 package, the whole-module diagnostics in its files\n%s",
				dir, sub.Packages, formatDiags(sub.Diagnostics), formatDiags(want))
		}
		if out := sub.Outstanding(); len(out) != 0 {
			t.Errorf("./%s is not lint-clean alone:\n%s", dir, formatDiags(out))
		}
	}
}

// TestModuleImportsNoNetwork pins the module's dependency cut: no
// module package reaches net or any net/... package, directly or
// through the standard library. The analyzer is an offline batch
// tool, and net would drag runtime/cgo (and a cgo pass) into every
// lint run's type check. A failure names the module package that
// brings the import in, with the chain to it.
func TestModuleImportsNoNetwork(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no module packages")
	}
	inModule := func(p string) bool { return p == l.ModulePath || strings.HasPrefix(p, l.ModulePath+"/") }
	for _, pkg := range pkgs {
		seen := map[*types.Package]bool{}
		var walk func(p *types.Package, chain string)
		walk = func(p *types.Package, chain string) {
			for _, imp := range p.Imports() {
				if seen[imp] || inModule(imp.Path()) {
					continue // a module import is walked from its own package
				}
				seen[imp] = true
				if imp.Path() == "net" || strings.HasPrefix(imp.Path(), "net/") {
					t.Errorf("%s imports %s%s", pkg.ImportPath, chain, imp.Path())
					continue
				}
				walk(imp, chain+imp.Path()+" → ")
			}
		}
		walk(pkg.Types, "")
	}
}

// TestDirectiveValidation: an ignore directive must name a known
// analyzer and carry a reason; a bare or misspelled directive is
// itself a gating finding and cannot suppress anything.
func TestDirectiveValidation(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, detScope, "internal/core/fixture/dir.go", `
package fixture

func Bad(a, b float64) (bool, bool, bool) {
	//mpg:lint-ignore floateqq epsilon free by design
	x := a == b
	//mpg:lint-ignore floateq
	y := a != b
	//mpg:lint-ignore
	z := a >= b
	return x, y, z
}
`)
	wantOutstanding(t, res,
		"names unknown analyzer \"floateqq\"",
		"exact floating-point comparison (==)",
		"carries no reason",
		"exact floating-point comparison (!=)",
		"names no analyzer",
		"exact floating-point comparison (>=)",
	)
}

// TestSuppressionScope: a trailing directive covers only its own line;
// an unrelated analyzer name suppresses nothing.
func TestSuppressionScope(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, detScope, "internal/core/fixture/scope.go", `
package fixture

func Mixed(a, b float64) (bool, bool) {
	x := a == b //mpg:lint-ignore detreach wrong analyzer: must not absorb the floateq finding
	y := a == b //mpg:lint-ignore floateq demonstration fixture
	return x, y
}
`)
	wantOutstanding(t, res, "exact floating-point comparison (==)")
	wantSuppressed(t, res, 1)
}

// TestStackedDirectives: standalone directives for different analyzers
// stack above one statement and each covers the full statement span.
func TestStackedDirectives(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, detScope, "internal/core/fixture/stack.go", `package fixture

func Stacked(a, b float64) bool {
	//mpg:lint-ignore detreach unrelated analyzer stacked above the same statement
	//mpg:lint-ignore floateq demonstration fixture for stacked standalone directives
	x := a == b
	return x
}
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("stacked directive did not reach past its sibling:\n%s", formatDiags(out))
	}
	wantSuppressed(t, res, 1)
}

// TestCommaDirective: one directive naming several analyzers yields a
// suppression per name (the form every pruned call-graph boundary in
// the repo uses).
func TestCommaDirective(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, "mpgraph/internal/core/fixture", "internal/core/fixture/comma.go", `package fixture

//mpg:hotpath
func Root() {
	//mpg:lint-ignore hotpathprop,detreach shared out-of-band boundary
	observe()
}

func observe() { _ = make([]int, 4) }
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("comma directive did not suppress the named analyzer:\n%s", formatDiags(out))
	}
	// And through detreach: the second name prunes that analyzer's
	// walk out of the scope too.
	res2 := runFixtures(t, DetReachAnalyzer, obsvFixture, fixtureSource{"mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "mpgraph/internal/obsv/fixture"

func ReplayCompiled() {
	//mpg:lint-ignore hotpathprop,detreach shared out-of-band boundary
	fixture.RecordWallClock()
}
`})
	if out := res2.Outstanding(); len(out) != 0 {
		t.Fatalf("comma directive did not prune the second analyzer's walk:\n%s", formatDiags(out))
	}
}

// TestStaleDirective: a directive that suppresses no diagnostic and
// prunes no call edge for an analyzer it names that ran is itself a
// gating finding. A name whose analyzer did not run is not judged.
func TestStaleDirective(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, detScope, "internal/core/fixture/stale.go", `package fixture

func Cmp(a, b float64, n, m int) (bool, bool) {
	//mpg:lint-ignore floateq demonstration fixture: the comparison it excused now compares ints
	x := n == m
	//mpg:lint-ignore hotpathprop not run here, so not judged
	y := a == b //mpg:lint-ignore floateq demonstration fixture
	return x, y
}
`)
	wantOutstanding(t, res, "mpg:lint-ignore floateq suppresses nothing; delete the stale directive")
	if d := res.Outstanding()[0]; d.Analyzer != "directive" || d.Line != 4 {
		t.Errorf("stale directive reported as %s at line %d, want directive at line 4", d.Analyzer, d.Line)
	}
	wantSuppressed(t, res, 1)
}

// TestPruningDirectiveIsNotStale: a directive whose only effect is to
// prune a call edge is in use, even when the analyzer reports nothing
// at the pruned boundary (concdiscipline's hot-path send walk).
func TestPruningDirectiveIsNotStale(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/prune.go", `package fixture

//mpg:hotpath
func hotLoop(ch chan int) {
	//mpg:lint-ignore concdiscipline demonstration fixture: the receiver is buffered by contract
	emit(ch, 1)
}

func emit(ch chan int, v int) { ch <- v }
`)
	wantOutstanding(t, res)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
