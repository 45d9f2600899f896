package analysis

import (
	"strings"
	"testing"
)

// runFixture type-checks one in-memory file as a package of the real
// module (so fixtures can import mpgraph/internal/dist etc.) and runs
// the given analyzer over it, honoring its scope rules.
func runFixture(t *testing.T, a *Analyzer, importPath, filename, src string) *Result {
	t.Helper()
	return runFixtures(t, a, fixtureSource{importPath, filename, src})
}

// runFixtures is runFixture over several fixture packages.
func runFixtures(t *testing.T, a *Analyzer, files ...fixtureSource) *Result {
	t.Helper()
	return RunPackages(loadFixtures(t, files...), Config{Analyzers: []*Analyzer{a}})
}

// fixtureSource is one in-memory file of a fixture module package.
type fixtureSource struct {
	importPath string
	filename   string
	src        string
}

// loadFixtures type-checks the fixture packages in order, so later
// packages can import earlier ones.
func loadFixtures(t *testing.T, files ...fixtureSource) []*Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, f := range files {
		pkg, err := l.CheckSource(f.importPath, f.filename, f.src)
		if err != nil {
			t.Fatalf("CheckSource(%s): %v", f.filename, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// wantOutstanding asserts the result has exactly the outstanding
// diagnostics whose messages contain the given substrings, in order.
func wantOutstanding(t *testing.T, res *Result, substrings ...string) {
	t.Helper()
	out := res.Outstanding()
	if len(out) != len(substrings) {
		t.Fatalf("got %d outstanding diagnostics, want %d:\n%s",
			len(out), len(substrings), formatDiags(out))
	}
	for i, want := range substrings {
		if !strings.Contains(out[i].Message, want) {
			t.Errorf("diagnostic %d: message %q does not contain %q", i, out[i].Message, want)
		}
	}
}

// wantSuppressed asserts the result has exactly n suppressed
// diagnostics, each carrying a non-empty reason.
func wantSuppressed(t *testing.T, res *Result, n int) {
	t.Helper()
	var supp []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Suppressed {
			supp = append(supp, d)
		}
	}
	if len(supp) != n {
		t.Fatalf("got %d suppressed diagnostics, want %d:\n%s", len(supp), n, formatDiags(res.Diagnostics))
	}
	for _, d := range supp {
		if d.Reason == "" {
			t.Errorf("suppressed diagnostic at %s:%d has no reason", d.File, d.Line)
		}
	}
}

func formatDiags(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  ")
		b.WriteString(d.File)
		b.WriteString(": ")
		b.WriteString(d.Analyzer)
		b.WriteString(": ")
		b.WriteString(d.Message)
		if d.Suppressed {
			b.WriteString(" [suppressed]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
