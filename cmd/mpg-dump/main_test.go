package main

import (
	"os"
	"path/filepath"
	"testing"

	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

func writeTraces(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	prog, err := workloads.BuildByName("tokenring", workloads.Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.Run(mpi.Config{
		Machine: machine.Config{NRanks: 3, Seed: 1}, TraceDir: dir,
	}, prog); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDumpSingleRank(t *testing.T) {
	if err := run([]string{"-traces", writeTraces(t), "-rank", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestDumpAllRanks(t *testing.T) {
	out := filepath.Join(t.TempDir(), "txt")
	if err := run([]string{"-traces", writeTraces(t), "-all", "-out", out}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if _, err := os.Stat(filepath.Join(out, trace.FileName(r)[:len("rank-0000")]+".txt")); err != nil {
			t.Fatalf("rank %d text file missing: %v", r, err)
		}
	}
}

func TestTextToBinaryRoundTrip(t *testing.T) {
	// Dump rank 0 to text, convert back to binary, reopen.
	dir := writeTraces(t)
	txtDir := filepath.Join(t.TempDir(), "txt")
	if err := run([]string{"-traces", dir, "-all", "-out", txtDir}); err != nil {
		t.Fatal(err)
	}
	binDir := filepath.Join(t.TempDir(), "bin")
	if err := run([]string{"-from-text", filepath.Join(txtDir, "rank-0000.txt"),
		"-out", binDir}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(binDir, trace.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	r, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) == 0 {
		t.Fatal("converted trace empty")
	}
}

func TestDumpErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no mode accepted")
	}
	if err := run([]string{"-traces", writeTraces(t), "-rank", "9"}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := run([]string{"-traces", writeTraces(t), "-all"}); err == nil {
		t.Fatal("-all without -out accepted")
	}
	if err := run([]string{"-from-text", "x.txt"}); err == nil {
		t.Fatal("-from-text without -out accepted")
	}
}
