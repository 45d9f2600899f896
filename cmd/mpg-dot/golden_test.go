package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenDOT pins the exact DOT bytes for a trace that exercises
// every edge family: compute gaps, Isend/Irecv posts whose data and
// ack edges land on the waits (Fig. 3), and an Allreduce per
// iteration with its Fig. 4 hub edges (stencil1d, 4 ranks, seed 1).
func TestGoldenDOT(t *testing.T) {
	dir := t.TempDir()
	prog, err := workloads.BuildByName("stencil1d", workloads.Options{Iterations: 2, CollEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.Run(mpi.Config{
		Machine:  machine.Config{NRanks: 4, Seed: 1},
		TraceDir: dir,
	}, prog); err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return run([]string{"-traces", dir, "-title", "stencil1d"}) })
	golden := filepath.Join("testdata", "stencil1d_dot.golden")
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
		t.Errorf("DOT deviates from golden (%d vs %d bytes)", len(got), len(want))
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := fn()
	os.Stdout = stdout
	w.Close() //nolint:errcheck
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}
