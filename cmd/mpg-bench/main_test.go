package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/microbench"
	"mpgraph/internal/trace"
)

func TestBenchWritesSignature(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sig.json")
	err := run([]string{"-ranks", "2", "-machine-noise", "exponential:100",
		"-out", out, "-label", "unit",
		"-ftq-samples", "50", "-pingpong-samples", "20", "-bandwidth-samples", "3"})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := microbench.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Platform != "unit" || len(sig.NoisePerQuantum) != 50 {
		t.Fatalf("signature = %+v", sig)
	}
	if sig.NoiseSummary().Mean <= 0 {
		t.Fatal("no noise measured")
	}
}

func TestBenchRequiresOut(t *testing.T) {
	if err := run([]string{"-ranks", "2"}); err == nil {
		t.Fatal("missing -out accepted")
	}
}

func TestBenchRejectsBadMachine(t *testing.T) {
	if err := run([]string{"-machine-latency", "x", "-out", "sig.json"}); err == nil {
		t.Fatal("bad machine spec accepted")
	}
}

// TestBenchReplayReport drives the -replay mode over a tiny trace and
// checks the report carries the configuration, an effective (never
// zero) worker count, and non-empty stats for every engine path.
func TestBenchReplayReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "replay.json")
	err := run([]string{"-replay",
		"-replay-workload", "stencil1d", "-replay-ranks", "6",
		"-replay-iters", "2", "-replay-collevery", "2",
		"-replay-trials", "9", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep replayReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "stencil1d" || rep.Ranks != 6 || rep.Trials != 9 || rep.Events <= 0 {
		t.Fatalf("report configuration = %+v", rep)
	}
	if rep.Workers <= 0 {
		t.Fatalf("report records workers = %d; want the effective pool size", rep.Workers)
	}
	for name, ps := range map[string]pathStats{
		"streaming_serial":   rep.StreamingSerial,
		"streaming_parallel": rep.StreamingParallel,
		"compiled":           rep.Compiled,
	} {
		if ps.NsPerReplay <= 0 || ps.ReplaysPerSec <= 0 {
			t.Errorf("%s has empty stats: %+v", name, ps)
		}
	}
	if rep.CompileNs <= 0 || rep.Speedup <= 0 {
		t.Fatalf("compile_ns = %d, speedup = %g", rep.CompileNs, rep.Speedup)
	}
}

// TestReplayGate checks the compiled≡streaming gate both ways: a
// program compiled from the benchmark's own trace passes, and one
// compiled from a different trace is reported as a divergence.
func TestReplayGate(t *testing.T) {
	cfg := replayConfig{workload: "stencil1d", ranks: 6, iters: 2, collEvery: 2, seed: 1}
	snap, err := replaySnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(snap *trace.Snapshot) *core.Compiled {
		c, err := core.Compile(snap.Set(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := replayGate(snap, compile(snap), cfg.seed); err != nil {
		t.Fatalf("gate rejected a matching program: %v", err)
	}
	cfg.iters = 3
	other, err := replaySnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = replayGate(snap, compile(other), cfg.seed)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("gate over a foreign program: err = %v, want a divergence", err)
	}
}
