package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListNamesFiveAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "concdiscipline detreach floateq hotpathprop rngpurity"; got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}

func TestRejectsRemovedAnalyzersAndFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-analyzers", "nondet"},
		{"-analyzers", "hotpathalloc"},
		{"-analyzers", "detreach"},
		{"-baseline", "x"},
		{"-write-baseline"},
		{"-json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

func TestTypeErrorExitsTwo(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module mpgraph\n\ngo 1.22\n",
		"bad.go": "package mpgraph\n\nvar x int = \"one\"\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bad.go:3:") {
		t.Errorf("stderr %q does not name bad.go:3", stderr.String())
	}
}

// TestRejectsPatternOutsideModule: a pattern is a path under the
// module root. One that climbs out of the root (even onto a real
// package of a sibling tree) or names no package is a usage error
// that names the pattern.
func TestRejectsPatternOutsideModule(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"mod/go.mod":                   "module mpgraph\n\ngo 1.22\n",
		"mod/internal/dist/dist.go":    "package dist\n",
		"other/internal/dist/dist.go":  "package dist\n",
		"mod/internal/empty/README.md": "no Go here\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod := filepath.Join(dir, "mod")
	for pattern, want := range map[string]string{
		"../other/internal/dist": "outside the module root",
		"internal/../..":         "outside the module root",
		"./internal/empty":       "matches no module package",
		"./internal/nope/...":    "matches no module package",
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-C", mod, pattern}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", pattern, code, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, `"`+pattern+`"`) || !strings.Contains(msg, want) {
			t.Errorf("%s: stderr %q does not name the pattern with %q", pattern, msg, want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", mod, "./internal/dist"}, &stdout, &stderr); code != 0 {
		t.Errorf("./internal/dist: exit %d, want 0 (stderr: %s)", code, stderr.String())
	}
}
