package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpgraph/internal/machine"
	"mpgraph/internal/microbench"
	"mpgraph/internal/mpi"
	"mpgraph/internal/report"
	"mpgraph/internal/timeline"
	"mpgraph/internal/workloads"
)

// writeTraces produces a trace directory for the tests.
func writeTraces(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	prog, err := workloads.BuildByName("tokenring", workloads.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.Run(mpi.Config{
		Machine:  machine.Config{NRanks: 4, Seed: 1},
		TraceDir: dir,
	}, prog); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnalyzeRuns(t *testing.T) {
	dir := writeTraces(t)
	if err := run([]string{"-traces", dir, "-latency", "constant:100"}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRequiresTraces(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -traces accepted")
	}
}

func TestAnalyzeRejectsBadModel(t *testing.T) {
	dir := writeTraces(t)
	if err := run([]string{"-traces", dir, "-os-noise", "bad"}); err == nil {
		t.Fatal("bad model spec accepted")
	}
}

func TestAnalyzeWithSignature(t *testing.T) {
	dir := writeTraces(t)
	sig, err := microbench.Measure(machine.Config{
		NRanks: 2, Seed: 2,
	}, microbench.Config{FTQSamples: 50, PingPongSamples: 20, BandwidthSamples: 3}, "t")
	if err != nil {
		t.Fatal(err)
	}
	sigPath := filepath.Join(t.TempDir(), "sig.json")
	if err := sig.Save(sigPath); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-traces", dir, "-signature", sigPath}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRejectsMissingSignature(t *testing.T) {
	dir := writeTraces(t)
	if err := run([]string{"-traces", dir, "-signature", "/nonexistent.json"}); err == nil {
		t.Fatal("missing signature accepted")
	}
}

func TestMain(m *testing.M) {
	// Silence the tools' stdout noise in test logs? No — keep output;
	// go test captures it per test anyway.
	os.Exit(m.Run())
}

func TestAnalyzeWithASCIITimeline(t *testing.T) {
	dir := writeTraces(t)
	if err := run([]string{"-traces", dir, "-ascii-timeline", "60"}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeWithTimelineExport(t *testing.T) {
	dir := writeTraces(t)
	out := filepath.Join(t.TempDir(), "run.trace.json")
	if err := run([]string{"-traces", dir, "-latency", "constant:100",
		"-timeline", out, "-timeline-window", "500"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := timeline.Validate(data); len(msgs) > 0 {
		t.Fatalf("exported timeline invalid:\n%s", strings.Join(msgs, "\n"))
	}
	s := string(data)
	for _, want := range []string{`"ph":"B"`, `"ph":"s"`, `"ph":"f"`, `"cat":"critpath"`, `"parallel_efficiency"`, "wait:late-sender"} {
		if !strings.Contains(s, want) {
			t.Fatalf("exported timeline missing %s", want)
		}
	}
	// The standalone validator accepts the export and rejects garbage.
	if err := run([]string{"-timeline-validate", out}); err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"traceEvents":[{"ph":"E","pid":1,"tid":0,"ts":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-timeline-validate", badPath}); err == nil {
		t.Fatal("validator accepted unbalanced trace")
	}
}

func TestAnalyzeTimelineRankFilter(t *testing.T) {
	dir := writeTraces(t)
	out := filepath.Join(t.TempDir(), "run.trace.json")
	if err := run([]string{"-traces", dir, "-latency", "constant:100",
		"-timeline", out, "-timeline-ranks", "1-2"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if strings.Contains(s, `"rank 0"`) || !strings.Contains(s, `"rank 1"`) {
		t.Fatalf("rank filter not applied:\n%.400s", s)
	}
	if err := run([]string{"-traces", dir, "-timeline", out,
		"-timeline-ranks", "0-9"}); err == nil {
		t.Fatal("out-of-world rank filter accepted")
	}
}

// TestAnalyzeRejectsRemovedEngines: the deleted lane-batched and
// wavefront-slab engines are unknown names now, rejected before any
// analysis runs.
func TestAnalyzeRejectsRemovedEngines(t *testing.T) {
	dir := writeTraces(t)
	for _, engine := range []string{"batched", "parallel"} {
		err := run([]string{"-traces", dir, "-engine", engine})
		want := fmt.Sprintf("unknown -engine %q (want streaming or compiled)", engine)
		if err == nil || err.Error() != want {
			t.Errorf("-engine %s: err = %v, want %q", engine, err, want)
		}
	}
}

func TestAnalyzeEngineFlag(t *testing.T) {
	dir := writeTraces(t)
	if err := run([]string{"-traces", dir, "-engine", "warp"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run([]string{"-traces", dir, "-engine", "compiled",
		"-critpath-dot", filepath.Join(t.TempDir(), "g.dot")}); err == nil {
		t.Fatal("-critpath-dot with compiled engine accepted")
	}
}

func TestAnalyzeSelfTrace(t *testing.T) {
	dir := writeTraces(t)
	out := filepath.Join(t.TempDir(), "self.trace.json")
	if err := run([]string{"-traces", dir, "-latency", "constant:100",
		"-selftrace", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := timeline.Validate(data); len(msgs) > 0 {
		t.Fatalf("self-trace invalid:\n%s", strings.Join(msgs, "\n"))
	}
	if !strings.Contains(string(data), `"analyze"`) {
		t.Fatalf("self-trace missing analyze span:\n%s", data)
	}
}

func TestAnalyzeWithTrajectory(t *testing.T) {
	dir := writeTraces(t)
	out := filepath.Join(t.TempDir(), "traj.csv")
	if err := run([]string{"-traces", dir, "-latency", "constant:100",
		"-trajectory", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "rank,event,kind,orig_end,delay,region\n") {
		t.Fatalf("missing header: %q", s[:60])
	}
	if !strings.Contains(s, "send") || !strings.Contains(s, "recv") {
		t.Fatal("trajectory missing event kinds")
	}
	if strings.Count(s, "\n") < 10 {
		t.Fatalf("too few trajectory rows:\n%s", s)
	}
}

func TestAnalyzeWithHistory(t *testing.T) {
	dir := writeTraces(t)
	hist := filepath.Join(t.TempDir(), "history.jsonl")
	for i := 0; i < 2; i++ {
		if err := run([]string{"-traces", dir, "-latency", "constant:100",
			"-history", hist, "-label", "unit"}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := report.LoadHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("history entries = %d", len(entries))
	}
	if entries[0].Label != "unit" || entries[0].MaxDelay <= 0 {
		t.Fatalf("entry = %+v", entries[0])
	}
	if entries[0].Model["latency"] != "constant:100" {
		t.Fatalf("model not archived: %+v", entries[0].Model)
	}
}

func TestAnalyzeWithScenario(t *testing.T) {
	dir := writeTraces(t)
	sc := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(sc, []byte(`{"name":"unit","latency":"constant:100"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-traces", dir, "-scenario", sc}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-traces", dir, "-scenario", "/missing.json"}); err == nil {
		t.Fatal("missing scenario accepted")
	}
}
