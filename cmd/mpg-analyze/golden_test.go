package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenCritPath pins the exact -critpath-csv and -critpath-dot
// bytes for a deterministic workload (tokenring, 4 ranks, seed 1)
// under a constant-latency model. Any change to trace generation,
// graph construction, path extraction, or rendering shows up here.
// TestGoldenTimeline pins the exact -timeline export bytes for the
// same deterministic workload, and requires both engines — streaming
// and compiled — to reproduce them bit-for-bit. The timeline is a pure function of (trace, model), not
// of the machinery that replays them.
func TestGoldenTimeline(t *testing.T) {
	dir := writeTraces(t)
	golden := filepath.Join("testdata", "timeline.golden")
	engines := []struct {
		name string
		args []string
	}{
		{"streaming", []string{"-engine", "streaming"}},
		{"compiled", []string{"-engine", "compiled"}},
	}
	for i, eng := range engines {
		out := filepath.Join(t.TempDir(), "run.trace.json")
		args := append([]string{"-traces", dir, "-latency", "constant:500",
			"-os-noise", "constant:20", "-timeline", out, "-timeline-window", "1000"}, eng.args...)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s timeline deviates from golden (%d vs %d bytes)", eng.name, len(got), len(want))
		}
	}
}

func TestGoldenCritPath(t *testing.T) {
	dir := writeTraces(t)
	tmp := t.TempDir()
	csvPath := filepath.Join(tmp, "crit.csv")
	dotPath := filepath.Join(tmp, "crit.dot")
	if err := run([]string{"-traces", dir, "-latency", "constant:500",
		"-critpath-csv", csvPath, "-critpath-dot", dotPath}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path string }{
		{"critpath_csv", csvPath},
		{"critpath_dot", dotPath},
	} {
		got, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", tc.name+".golden")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s deviates from golden:\n--- got\n%s\n--- want\n%s", tc.name, got, want)
		}
	}
}
