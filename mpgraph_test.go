package mpgraph

import (
	"os"
	"strings"
	"testing"

	"mpgraph/internal/trace"
)

func TestFacadePipeline(t *testing.T) {
	prog, err := Workload("tokenring", WorkloadOptions{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Trace(RunConfig{Machine: MachineConfig{NRanks: 8, Seed: 1}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(set, &Model{
		MsgLatency: MustParseDistribution("constant:100"),
	}, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFinalDelay <= 0 {
		t.Fatal("no delay propagated through facade pipeline")
	}
}

func TestFacadeSignatureToModel(t *testing.T) {
	noisy := MachineConfig{NRanks: 2, Seed: 2,
		Noise: MustParseDistribution("exponential:100")}
	sig, err := MeasureSignature(noisy, MicrobenchConfig{
		FTQSamples: 300, PingPongSamples: 100, BandwidthSamples: 5}, "noisy")
	if err != nil {
		t.Fatal(err)
	}
	model := ModelFromSignature(sig, 7)
	if model.OSNoise == nil || model.MsgLatency == nil {
		t.Fatal("model missing distributions")
	}

	prog, err := Workload("cg", WorkloadOptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Trace(RunConfig{Machine: MachineConfig{NRanks: 4, Seed: 3}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(set, model, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFinalDelay <= 0 {
		t.Fatal("signature-derived model injected nothing")
	}
}

func TestFacadeDOT(t *testing.T) {
	prog, err := Workload("tokenring", WorkloadOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Trace(RunConfig{Machine: MachineConfig{NRanks: 3, Seed: 4}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(set)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.DOT("t"), "digraph") {
		t.Fatal("DOT export broken through facade")
	}
}

func TestFacadeReplay(t *testing.T) {
	prog, err := Workload("pipeline", WorkloadOptions{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Trace(RunConfig{Machine: MachineConfig{NRanks: 4, Seed: 5}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(set, ReplayParams{Latency: 500, BytesPerCycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("replay produced nothing")
	}
}

func TestFacadeTraceDir(t *testing.T) {
	dir := t.TempDir()
	prog, err := Workload("bsp", WorkloadOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Trace(RunConfig{Machine: MachineConfig{NRanks: 3, Seed: 6},
		TraceDir: dir}, prog); err != nil {
		t.Fatal(err)
	}
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck
	res, err := Analyze(set, &Model{}, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NRanks != 3 {
		t.Fatalf("NRanks = %d", res.NRanks)
	}
}

func TestFacadeSweep(t *testing.T) {
	res, err := Sweep(SweepConfig{
		Workload:        "tokenring",
		WorkloadOptions: WorkloadOptions{Iterations: 3},
		Machine:         MachineConfig{NRanks: 4, Seed: 1},
		Param:           SweepLatency,
		From:            0, To: 200, Step: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 || !res.HasFit {
		t.Fatalf("sweep result: %d points, fit=%v", len(res.Points), res.HasFit)
	}
}

func TestFacadeLoadScenario(t *testing.T) {
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(`{"os_noise":"constant:5"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.OSNoise == nil {
		t.Fatal("scenario model empty")
	}
	if _, err := LoadScenario("/missing.json"); err == nil {
		t.Fatal("missing scenario accepted")
	}
}
