package sweep

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/machine"
	"mpgraph/internal/obsv"
	"mpgraph/internal/workloads"
)

func TestParseParam(t *testing.T) {
	for name, want := range map[string]Param{
		"":        ParamLatency,
		"latency": ParamLatency,
		"noise":   ParamNoise,
		"perbyte": ParamPerByte,
		"ranks":   ParamRanks,
	} {
		got, err := ParseParam(name)
		if err != nil || got != want {
			t.Errorf("ParseParam(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseParam("entropy"); err == nil {
		t.Error("unknown param accepted")
	}
}

func TestParamStrings(t *testing.T) {
	for p, want := range map[Param]string{
		ParamLatency: "latency", ParamNoise: "noise",
		ParamPerByte: "perbyte", ParamRanks: "ranks",
		Param(9): "param(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q", p, got)
		}
	}
}

func TestLatencySweepSec61Shape(t *testing.T) {
	res, err := Run(Config{
		Workload:        "tokenring",
		WorkloadOptions: workloads.Options{Iterations: 5},
		Machine:         machine.Config{NRanks: 8, Seed: 1},
		Param:           ParamLatency,
		From:            0, To: 400, Step: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.HasFit || res.Fit.R2 < 0.999 {
		t.Fatalf("fit = %+v", res.Fit)
	}
	// §6.1 slope ~ traversals × p = 40 (within the ack-path factor).
	if res.Fit.Slope < 40 || res.Fit.Slope > 100 {
		t.Fatalf("slope = %g", res.Fit.Slope)
	}
	if res.Points[0].Result.MaxFinalDelay != 0 {
		t.Fatal("zero perturbation should give zero delay")
	}
}

func TestNoiseAndPerByteSweeps(t *testing.T) {
	for _, p := range []Param{ParamNoise, ParamPerByte} {
		res, err := Run(Config{
			Workload:        "cg",
			WorkloadOptions: workloads.Options{Iterations: 3},
			Machine:         machine.Config{NRanks: 4, Seed: 2},
			Param:           p,
			From:            0, To: 2, Step: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		last := res.Points[len(res.Points)-1].Result.MaxFinalDelay
		if last <= 0 {
			t.Fatalf("%s: no delay at the top of the sweep", p)
		}
	}
}

func TestRanksSweep(t *testing.T) {
	res, err := Run(Config{
		Workload:        "bsp",
		WorkloadOptions: workloads.Options{Iterations: 3},
		Machine:         machine.Config{NRanks: 2, Seed: 3},
		Param:           ParamRanks,
		From:            2, To: 8, Step: 3,
		NoiseMean: 200,
		ModelSeed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Collective-heavy code: more ranks amplify the same noise model.
	if res.Points[2].Result.MaxFinalDelay <= res.Points[0].Result.MaxFinalDelay {
		t.Fatalf("noise amplification did not grow with ranks: %g vs %g",
			res.Points[2].Result.MaxFinalDelay, res.Points[0].Result.MaxFinalDelay)
	}
	// Each point used its own rank count.
	if res.Points[0].Result.NRanks != 2 || res.Points[2].Result.NRanks != 8 {
		t.Fatal("rank counts not applied per point")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{Workload: "tokenring", From: 1, To: 0, Step: 1}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := Run(Config{Workload: "tokenring", Step: 0}); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := Run(Config{Workload: "nope", From: 0, To: 1, Step: 1,
		Machine: machine.Config{NRanks: 2}}); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown workload accepted: %v", err)
	}
	if _, err := Run(Config{Workload: "tokenring", Param: ParamRanks,
		From: 0, To: 1, Step: 1, Machine: machine.Config{NRanks: 2}}); err == nil {
		t.Fatal("ranks < 1 accepted")
	}
}

// TestRunRejectsGraphSink: one graph sink cannot collect the replays
// of a whole sweep, so Run refuses it before tracing anything, with or
// without Monte Carlo trials.
func TestRunRejectsGraphSink(t *testing.T) {
	for _, trials := range []int{1, 3} {
		t.Run(fmt.Sprintf("trials=%d", trials), func(t *testing.T) {
			reg := obsv.NewRegistry()
			_, err := Run(Config{
				Workload: "tokenring",
				Machine:  machine.Config{NRanks: 2, Seed: 1},
				From:     0, To: 100, Step: 50,
				Analyze: core.Options{Graph: &core.Graph{}},
				Trials:  trials,
				Workers: 1,
				Metrics: reg,
			})
			const want = "sweep: Analyze.Graph cannot be shared by concurrent replays"
			if err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
			if n := reg.Snapshot().Timers["sweep_trace"].Count; n != 0 {
				t.Fatalf("traced %d points before rejecting the graph sink", n)
			}
		})
	}
}

func TestMetricsAndProgress(t *testing.T) {
	reg := obsv.NewRegistry()
	var mu sync.Mutex
	var lastDone, calls int
	res, err := Run(Config{
		Workload:        "tokenring",
		WorkloadOptions: workloads.Options{Iterations: 3},
		Machine:         machine.Config{NRanks: 4, Seed: 5},
		Param:           ParamLatency,
		From:            0, To: 200, Step: 100,
		Trials:  3,
		Workers: 2,
		Metrics: reg,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > lastDone {
				lastDone = done
			}
			if total != 9 {
				t.Errorf("progress total = %d, want 9", total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	mu.Lock()
	if calls != 9 || lastDone != 9 {
		t.Fatalf("progress calls = %d, max done = %d, want 9/9", calls, lastDone)
	}
	mu.Unlock()
	snap := reg.Snapshot()
	// Trials ride the compiled replay path: the three latency points
	// share one tracing machine, so 1 pool task traces and compiles it,
	// then each of the 9 trials is one pool task replaying that
	// compiled program.
	for name, want := range map[string]int64{
		"sweep_points_total":          3,
		"sweep_trials_total":          9,
		"sweep_compiled_points_total": 1,
		"parallel_tasks_total":        10,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Engine counters flow through Analyze.Metrics defaulting: the
	// shared trace compiles once (a zero-model streaming pass) and each
	// trial replays the compiled program.
	if got := snap.Counters["core_compiles_total"]; got != 1 {
		t.Errorf("core_compiles_total = %d, want 1", got)
	}
	if got := snap.Counters["core_replays_total"]; got != 9 {
		t.Errorf("core_replays_total = %d, want 9", got)
	}
	if snap.Counters["core_events_total"] == 0 {
		t.Error("core_events_total is zero")
	}
	if ms := snap.PhaseMS(); ms["sweep_run"] <= 0 || ms["sweep_trace"] <= 0 ||
		ms["core_compile"] <= 0 || ms["core_replay_compiled"] <= 0 {
		t.Errorf("phase timings not all positive: %v", ms)
	}
	if h, ok := snap.Histograms["parallel_task_ms"]; !ok || h.Count != 10 {
		t.Errorf("parallel_task_ms histogram = %+v", snap.Histograms["parallel_task_ms"])
	}
	if w := snap.Gauges["parallel_pool_workers"]; w != 2 {
		t.Errorf("pool workers gauge = %g, want 2", w)
	}
}

// TestMetricsDoNotChangeResults: the same sweep with and without a
// registry attached must produce identical delay series.
func TestMetricsDoNotChangeResults(t *testing.T) {
	base := Config{
		Workload:        "stencil1d",
		WorkloadOptions: workloads.Options{Iterations: 3},
		Machine:         machine.Config{NRanks: 4, Seed: 6},
		Param:           ParamNoise,
		From:            50, To: 150, Step: 50,
		ModelSeed: 11,
		Trials:    2,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	instr := base
	instr.Metrics = obsv.NewRegistry()
	instr.Progress = func(done, total int) {}
	got, err := Run(instr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Points {
		if plain.Points[i].Result.MaxFinalDelay != got.Points[i].Result.MaxFinalDelay ||
			*plain.Points[i].Trials != *got.Points[i].Trials {
			t.Fatalf("point %d diverged under instrumentation", i)
		}
	}
	if plain.Fit != got.Fit {
		t.Fatalf("fit diverged: %+v vs %+v", plain.Fit, got.Fit)
	}
}
