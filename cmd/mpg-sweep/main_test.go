package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"mpgraph/internal/cli"
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

// TestSweepFlagErrorExitsTwo: a flag error is a usage error. The
// FlagSet prints it with the usage on run's stderr, and the exit
// status is 2 with nothing printed twice.
func TestSweepFlagErrorExitsTwo(t *testing.T) {
	var runErr, mainErr bytes.Buffer
	err := run([]string{"-no-such-flag"}, io.Discard, &runErr)
	if got := runErr.String(); !strings.Contains(got, "flag provided but not defined: -no-such-flag") || !strings.Contains(got, "-trials") {
		t.Fatalf("stderr = %q, want the flag error and the usage", got)
	}
	if code := cli.ExitCode("mpg-sweep", err, &mainErr); code != 2 || mainErr.Len() != 0 {
		t.Fatalf("exit %d with %q on stderr, want 2 and nothing", code, mainErr.String())
	}
}

// TestSweepHelpExitsZero: -h prints the usage on run's stderr and
// exits 0.
func TestSweepHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-h"}, &stdout, &stderr)
	if !strings.Contains(stderr.String(), "-trials") || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q; want the usage on stderr alone", stdout.String(), stderr.String())
	}
	if code := cli.ExitCode("mpg-sweep", err, &stderr); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
}

// TestSweepFailedRunExitsOne: a run that fails after its flags parse
// exits 1 with one "mpg-sweep:" line on stderr.
func TestSweepFailedRunExitsOne(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-step", "0"}, io.Discard, io.Discard)
	if code := cli.ExitCode("mpg-sweep", err, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "mpg-sweep: invalid sweep range") {
		t.Fatalf("exit %d with %q on stderr, want 1 and the error", code, stderr.String())
	}
	if code := cli.ExitCode("mpg-sweep", nil, &stderr); code != 0 {
		t.Fatalf("a finished run exits %d, want 0", code)
	}
}
