package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestSweepLatency(t *testing.T) {
	err := run([]string{"-workload", "tokenring", "-ranks", "4", "-iters", "2",
		"-sweep", "latency", "-from", "0", "-to", "200", "-step", "100"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepNoiseWithBaselineCSV(t *testing.T) {
	err := run([]string{"-workload", "cg", "-ranks", "3", "-iters", "2",
		"-sweep", "noise", "-from", "0", "-to", "100", "-step", "50",
		"-baseline", "-csv"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepPerByte(t *testing.T) {
	err := run([]string{"-workload", "pipeline", "-ranks", "3", "-iters", "2",
		"-sweep", "perbyte", "-from", "0", "-to", "1", "-step", "0.5"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepTrials(t *testing.T) {
	err := run([]string{"-workload", "tokenring", "-ranks", "3", "-iters", "2",
		"-sweep", "ranks", "-from", "2", "-to", "3", "-step", "1",
		"-trials", "4", "-workers", "2"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepTrialsWorkersIdentical pins the -workers contract at the
// CLI surface: any pool size emits byte-identical CSV for the same
// Monte Carlo sweep.
func TestSweepTrialsWorkersIdentical(t *testing.T) {
	base := []string{"-workload", "stencil1d", "-ranks", "4", "-iters", "2",
		"-sweep", "noise", "-from", "0", "-to", "100", "-step", "50",
		"-trials", "5", "-csv"}
	outFor := func(workers string) string {
		var buf bytes.Buffer
		if err := run(append(append([]string{}, base...), "-workers", workers), &buf, io.Discard); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		return buf.String()
	}
	want := outFor("1")
	for _, workers := range []string{"2", "3", "8"} {
		if got := outFor(workers); got != want {
			t.Errorf("-workers %s output diverges from -workers 1:\n--- want\n%s--- got\n%s", workers, want, got)
		}
	}
}

func TestSweepRejectsBadRange(t *testing.T) {
	if err := run([]string{"-from", "100", "-to", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := run([]string{"-step", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestSweepRejectsUnknownParam(t *testing.T) {
	if err := run([]string{"-sweep", "phase-of-moon", "-ranks", "2",
		"-workload", "tokenring", "-iters", "1", "-to", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown sweep parameter accepted")
	}
}

// TestSweepRejectsRemovedPprofFlag: -pprof (a live net/http/pprof
// endpoint) is gone; -selftrace, -metrics-out and go test -cpuprofile
// cover profiling. The flag is now undefined, and main prints the
// error on stderr with a nonzero exit.
func TestSweepRejectsRemovedPprofFlag(t *testing.T) {
	const want = "flag provided but not defined: -pprof"
	if err := run([]string{"-pprof", "localhost:0"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run error = %v, want %q", err, want)
	}
}
