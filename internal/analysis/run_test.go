package analysis

import (
	"os"
	"path/filepath"
	"strings"
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

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
