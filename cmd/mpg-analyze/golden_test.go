package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenTimeline pins the exact -timeline export bytes for a
// deterministic workload (tokenring, 4 ranks, seed 1). The compiled
// engine's export is pinned to the same bytes on every verify scenario
// by verify.TimelineInvariant.
func TestGoldenTimeline(t *testing.T) {
	dir := writeTraces(t)
	golden := filepath.Join("testdata", "timeline.golden")
	out := filepath.Join(t.TempDir(), "run.trace.json")
	if err := run([]string{"-traces", dir, "-latency", "constant:500",
		"-os-noise", "constant:20", "-timeline", out, "-timeline-window", "1000"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("timeline deviates from golden (%d vs %d bytes)", len(got), len(want))
	}
}

// TestGoldenCritPath pins the exact -critpath-csv and -critpath-dot
// bytes for the same workload under a constant-latency model. Any
// change to trace generation, graph construction, path extraction, or
// rendering shows up here.
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
