package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/verify"
	"mpgraph/internal/workloads"
)

// writeTraces produces a clean trace directory for lint-mode tests.
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

// writeMalformedTraces hand-writes a directory holding a head-to-head
// receive deadlock (clean matching, unrunnable schedule).
func writeMalformedTraces(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rank int, recs []trace.Record) {
		w, closeFn, err := trace.CreateFileWriter(dir, trace.Header{Rank: rank, NRanks: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Record(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := closeFn(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, []trace.Record{
		{Kind: trace.KindRecv, Begin: 0, End: 10, Peer: 1},
		{Kind: trace.KindSend, Begin: 10, End: 20, Peer: 1},
	})
	write(1, []trace.Record{
		{Kind: trace.KindRecv, Begin: 0, End: 10, Peer: 0},
		{Kind: trace.KindSend, Begin: 10, End: 20, Peer: 0},
	})
	return dir
}

func unitScenario() *verify.Scenario {
	return &verify.Scenario{
		Workload:      "tokenring",
		Ranks:         4,
		Iterations:    2,
		Tasks:         1,
		Bytes:         512,
		Compute:       5_000,
		CollEvery:     1,
		WorkloadSeed:  1,
		MachineSeed:   1,
		BaseLatency:   800,
		BaseBandwidth: 1,
		Class:         verify.ClassLatency,
		DeltaLatency:  400,
	}
}

func TestVerifyCampaignPasses(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seed", "1", "-n", "4"}, &buf); err != nil {
		t.Fatalf("campaign failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "seed=1 scenarios=4 checked=4 failed=0") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "all scenarios agree") {
		t.Fatalf("missing success line:\n%s", out)
	}
}

func TestVerifyCampaignJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seed", "1", "-n", "3", "-json"}, &buf); err != nil {
		t.Fatalf("campaign failed: %v\n%s", err, buf.String())
	}
	var rep verify.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if rep.Checked != 3 || rep.Failed != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestVerifyLintCleanTraces(t *testing.T) {
	dir := writeTraces(t)
	var buf bytes.Buffer
	if err := run([]string{"-traces", dir}, &buf); err != nil {
		t.Fatalf("clean traces flagged: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "lint: no findings") {
		t.Fatalf("missing clean bill:\n%s", buf.String())
	}
}

func TestVerifyLintFlagsDeadlock(t *testing.T) {
	dir := writeMalformedTraces(t)
	var buf bytes.Buffer
	err := run([]string{"-traces", dir}, &buf)
	if err == nil {
		t.Fatalf("deadlocked traces accepted:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), verify.LintDeadlock) {
		t.Fatalf("missing deadlock finding:\n%s", buf.String())
	}
}

func TestVerifyLintJSON(t *testing.T) {
	dir := writeMalformedTraces(t)
	var buf bytes.Buffer
	if err := run([]string{"-traces", dir, "-json"}, &buf); err == nil {
		t.Fatal("deadlocked traces accepted")
	}
	var out struct {
		Dir      string           `json:"dir"`
		Findings []verify.Finding `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if len(out.Findings) == 0 {
		t.Fatal("no findings in JSON output")
	}
}

func TestVerifyScenarioRerun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	data, err := json.MarshalIndent(unitScenario(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-scenario", path}, &buf); err != nil {
		t.Fatalf("scenario rerun failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "0 failures") {
		t.Fatalf("missing pass line:\n%s", buf.String())
	}
}

func TestVerifyReproducerRerun(t *testing.T) {
	rep := &verify.Reproducer{
		CampaignSeed: 9,
		Index:        2,
		Scenario:     unitScenario(),
		Failures:     []string{"differential: synthetic"},
		Original:     unitScenario(),
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repro-2.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-scenario", path}, &buf); err != nil {
		t.Fatalf("reproducer rerun failed: %v\n%s", err, buf.String())
	}
}

func TestVerifyScenarioRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(path, []byte(`{"neither":"fish nor fowl"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}, &bytes.Buffer{}); err == nil {
		t.Fatal("garbage scenario file accepted")
	}
}

func TestVerifyRejectsMissingTraceDir(t *testing.T) {
	if err := run([]string{"-traces", "/nonexistent-mpg-verify"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing trace dir accepted")
	}
}
