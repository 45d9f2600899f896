package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleQuick(t *testing.T) {
	if err := run([]string{"-quick", "-run", "fig2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllQuick(t *testing.T) {
	if err := run([]string{"-quick"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig99"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestDOTArtifactWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig5.dot")
	if err := run([]string{"-quick", "-run", "fig5", "-dot", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatal("DOT artifact malformed")
	}
}

func TestCSVMode(t *testing.T) {
	if err := run([]string{"-quick", "-run", "ablD", "-csv"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestMarkdownMode(t *testing.T) {
	if err := run([]string{"-quick", "-run", "fig2", "-md"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsRemovedPprofFlag: -pprof (a live net/http/pprof
// endpoint) is gone; -selftrace, -metrics-out and go test -cpuprofile
// cover profiling. The flag is now undefined, and main prints the
// error on stderr with a nonzero exit.
func TestRejectsRemovedPprofFlag(t *testing.T) {
	const want = "flag provided but not defined: -pprof"
	if err := run([]string{"-pprof", "localhost:0"}, io.Discard); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run error = %v, want %q", err, want)
	}
}
