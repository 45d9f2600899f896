// Benchmark harness regenerating every figure and experiment of the
// paper's evaluation, plus the ablations called out in DESIGN.md.
// Each benchmark reports the experiment's headline numbers through
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction run; EXPERIMENTS.md records the paper-vs-measured
// comparison.
package mpgraph_test

import (
	"fmt"
	"testing"

	"mpgraph"
	"mpgraph/internal/baseline"
	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/microbench"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// mustTrace runs a workload and returns its trace set.
func mustTrace(b *testing.B, name string, nranks int, opts workloads.Options, seed uint64) *trace.Set {
	b.Helper()
	prog, err := workloads.BuildByName(name, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: nranks, Seed: seed}}, prog)
	if err != nil {
		b.Fatal(err)
	}
	set, err := res.TraceSet()
	if err != nil {
		b.Fatal(err)
	}
	return set
}

func mustAnalyze(b *testing.B, set *trace.Set, model *core.Model) *core.Result {
	b.Helper()
	res, err := core.Analyze(set, model, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1TraceGeneration measures the tracing substrate itself:
// generating the alternating compute/messaging phase structure of
// Fig. 1 for a 32-rank halo-exchange run. Metric: traced events/sec.
func BenchmarkFig1TraceGeneration(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		prog, err := workloads.BuildByName("stencil1d", workloads.Options{Iterations: 10})
		if err != nil {
			b.Fatal(err)
		}
		res, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: 32, Seed: uint64(i)}}, prog)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Stats.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkFig2Eq1Propagation exercises the blocking send/receive
// subgraph (Fig. 2 / Eq. 1) at scale: a token ring is pure blocking
// pairs. Metric: analyzed events/sec and the propagated delay.
func BenchmarkFig2Eq1Propagation(b *testing.B) {
	model := &core.Model{
		OSNoise:    dist.Exponential{MeanValue: 100},
		MsgLatency: dist.Exponential{MeanValue: 300},
		PerByte:    dist.Constant{C: 0.01},
	}
	var res *core.Result
	for i := 0; i < b.N; i++ {
		set := mustTrace(b, "tokenring", 32, workloads.Options{Iterations: 20}, 1)
		res = mustAnalyze(b, set, model)
	}
	b.ReportMetric(float64(res.Events)/b.Elapsed().Seconds()*float64(b.N), "events/s")
	b.ReportMetric(res.MaxFinalDelay, "max-delay-cycles")
}

// BenchmarkFig3Eq2Propagation exercises the nonblocking pair + wait
// subgraph (Fig. 3 / Eq. 2): the 1-D stencil is isend/irecv/waitall
// traffic.
func BenchmarkFig3Eq2Propagation(b *testing.B) {
	model := &core.Model{
		OSNoise:    dist.Exponential{MeanValue: 100},
		MsgLatency: dist.Exponential{MeanValue: 300},
	}
	var res *core.Result
	for i := 0; i < b.N; i++ {
		set := mustTrace(b, "stencil1d", 32, workloads.Options{Iterations: 20}, 2)
		res = mustAnalyze(b, set, model)
	}
	b.ReportMetric(res.MaxFinalDelay, "max-delay-cycles")
}

// BenchmarkFig4AllReduce compares the paper's compact collective model
// (Fig. 4) with the explicit butterfly construction across world
// sizes — both the analysis cost and the predicted delay, the paper's
// space/time-efficiency argument for the approximation.
func BenchmarkFig4AllReduce(b *testing.B) {
	for _, p := range []int{8, 32, 128} {
		for _, mode := range []core.CollectiveMode{core.CollectiveApprox, core.CollectiveExplicit} {
			b.Run(fmt.Sprintf("p=%d/%s", p, mode), func(b *testing.B) {
				model := &core.Model{
					OSNoise:     dist.Exponential{MeanValue: 50},
					MsgLatency:  dist.Exponential{MeanValue: 200},
					Collectives: mode,
				}
				var res *core.Result
				for i := 0; i < b.N; i++ {
					set := mustTrace(b, "cg", p, workloads.Options{Iterations: 10}, 3)
					res = mustAnalyze(b, set, model)
				}
				b.ReportMetric(res.MaxFinalDelay, "max-delay-cycles")
			})
		}
	}
}

// BenchmarkFig5DOTExport regenerates the Fig. 5 artifact: the
// materialized graph and its Graphviz rendering for a small
// blocking-only trace.
func BenchmarkFig5DOTExport(b *testing.B) {
	var dotLen int
	for i := 0; i < b.N; i++ {
		set := mustTrace(b, "tokenring", 4, workloads.Options{Iterations: 3}, 4)
		g, err := core.BuildGraph(set)
		if err != nil {
			b.Fatal(err)
		}
		dotLen = len(g.DOT("fig5"))
	}
	b.ReportMetric(float64(dotLen), "dot-bytes")
}

// BenchmarkSec61TokenRingSweep is the paper's quantitative experiment:
// 128 ranks, 10 ring traversals, constant per-message perturbation
// swept 0..700 by 100. The reported slope metric is the paper's
// "traversals × p" (expected 1280).
func BenchmarkSec61TokenRingSweep(b *testing.B) {
	const ranks, traversals = 128, 10
	var fit dist.LinearFit
	for i := 0; i < b.N; i++ {
		var xs, ys []float64
		for c := 0.0; c <= 700; c += 100 {
			set := mustTrace(b, "tokenring", ranks, workloads.Options{Iterations: traversals}, 5)
			res := mustAnalyze(b, set, &core.Model{MsgLatency: dist.Constant{C: c}})
			xs = append(xs, c)
			ys = append(ys, res.MaxFinalDelay)
		}
		fit = dist.FitLinear(xs, ys)
	}
	b.ReportMetric(fit.Slope, "slope-cycles-per-unit")
	b.ReportMetric(float64(traversals*ranks), "paper-expected-slope")
	b.ReportMetric(fit.R2, "R2")
}

// BenchmarkAblationWindowSizes measures the streaming builder's
// scheduling fairness: smaller bursts keep the matching window tiny at
// a modest scheduling cost (§4.2's bounded-memory claim).
func BenchmarkAblationWindowSizes(b *testing.B) {
	for _, burst := range []int{1, 8, 64, 1024} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			var hw int
			for i := 0; i < b.N; i++ {
				set := mustTrace(b, "stencil1d", 16, workloads.Options{Iterations: 50}, 6)
				res, err := core.Analyze(set, &core.Model{}, core.Options{Burst: burst})
				if err != nil {
					b.Fatal(err)
				}
				hw = res.WindowHighWater
			}
			b.ReportMetric(float64(hw), "window-high-water")
		})
	}
}

// BenchmarkAblationEmpiricalVsAnalytic compares the two Section 5
// parameterization paths on identical microbenchmark data: sampling
// cost and resulting delay prediction.
func BenchmarkAblationEmpiricalVsAnalytic(b *testing.B) {
	// One shared microbenchmark data set.
	samples, err := microbench.FTQ(machine.Config{
		NRanks: 2, Seed: 7, Noise: dist.Exponential{MeanValue: 150},
	}, 10_000, 2000)
	if err != nil {
		b.Fatal(err)
	}
	empirical := dist.NewEmpirical(samples)
	fitted, err := dist.FitExponential(samples)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		noise dist.Distribution
	}{
		{"empirical", empirical},
		{"fitted-exponential", fitted},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				set := mustTrace(b, "cg", 16, workloads.Options{Iterations: 10}, 8)
				res = mustAnalyze(b, set, &core.Model{Seed: 9, OSNoise: tc.noise})
			}
			b.ReportMetric(res.MaxFinalDelay, "max-delay-cycles")
		})
	}
}

// BenchmarkAblationGraphVsDES compares the graph-traversal analyzer
// with the Dimemas-style DES replayer on identical traces: analysis
// cost (ns/op) and predicted makespan growth for the same latency
// bump.
func BenchmarkAblationGraphVsDES(b *testing.B) {
	const delta = 2000
	b.Run("graph", func(b *testing.B) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			set := mustTrace(b, "tokenring", 64, workloads.Options{Iterations: 10}, 10)
			res = mustAnalyze(b, set, &core.Model{MsgLatency: dist.Constant{C: delta}})
		}
		b.ReportMetric(res.MakespanDelay, "makespan-growth")
	})
	b.Run("des-replay", func(b *testing.B) {
		var growth float64
		for i := 0; i < b.N; i++ {
			base, err := baseline.Replay(
				mustTrace(b, "tokenring", 64, workloads.Options{Iterations: 10}, 10),
				baseline.Params{Latency: 1000, BytesPerCycle: 1})
			if err != nil {
				b.Fatal(err)
			}
			bumped, err := baseline.Replay(
				mustTrace(b, "tokenring", 64, workloads.Options{Iterations: 10}, 10),
				baseline.Params{Latency: 1000 + delta, BytesPerCycle: 1})
			if err != nil {
				b.Fatal(err)
			}
			growth = float64(bumped.Makespan - base.Makespan)
		}
		b.ReportMetric(growth, "makespan-growth")
	})
}

// BenchmarkAblationCollectiveModels scales the collective-model
// comparison (approx hub vs explicit pattern) over world size on a
// collective-dominated workload.
func BenchmarkAblationCollectiveModels(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		for _, mode := range []core.CollectiveMode{core.CollectiveApprox, core.CollectiveExplicit} {
			b.Run(fmt.Sprintf("p=%d/%s", p, mode), func(b *testing.B) {
				model := &core.Model{
					OSNoise:     dist.Exponential{MeanValue: 100},
					MsgLatency:  dist.Exponential{MeanValue: 100},
					Collectives: mode,
				}
				var res *core.Result
				for i := 0; i < b.N; i++ {
					set := mustTrace(b, "bsp", p, workloads.Options{Iterations: 5}, 11)
					res = mustAnalyze(b, set, model)
				}
				b.ReportMetric(res.MaxFinalDelay, "max-delay-cycles")
			})
		}
	}
}

// BenchmarkExtensionNegativeNoise is the paper's Section 7 future-work
// analysis: trace on a noisy platform, then model a *quieter* one with
// negative deltas under the order-preservation guard.
func BenchmarkExtensionNegativeNoise(b *testing.B) {
	mcfg := machine.Config{NRanks: 16, Seed: 12, Noise: dist.Exponential{MeanValue: 300}}
	model := &core.Model{
		Seed:          13,
		OSNoise:       dist.Constant{C: -150}, // remove ~half the noise
		AllowNegative: true,
	}
	var res *core.Result
	for i := 0; i < b.N; i++ {
		prog, err := workloads.BuildByName("cg", workloads.Options{Iterations: 10})
		if err != nil {
			b.Fatal(err)
		}
		run, err := mpi.Run(mpi.Config{Machine: mcfg}, prog)
		if err != nil {
			b.Fatal(err)
		}
		set, err := run.TraceSet()
		if err != nil {
			b.Fatal(err)
		}
		res = mustAnalyze(b, set, model)
	}
	b.ReportMetric(res.MeanFinalDelay, "mean-delay-cycles")
	b.ReportMetric(float64(res.OrderViolations), "order-violations-clamped")
}

// BenchmarkAnalyzerThroughput is the engineering headline: events per
// second through the streaming builder at 128 ranks (no benchmark in
// the paper, but the §6 scalability claim).
func BenchmarkAnalyzerThroughput(b *testing.B) {
	model := &core.Model{
		OSNoise:    dist.Exponential{MeanValue: 100},
		MsgLatency: dist.Exponential{MeanValue: 100},
	}
	set := mustTrace(b, "stencil1d", 128, workloads.Options{Iterations: 100}, 14)
	mem := memify(b, set)
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		s, err := trace.SetFromMem(mem)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Analyze(s, model, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAnalyzeStoredTrace is one what-if analysis of a stored
// trace, as `mpg-analyze -critpath` runs it: the 256-rank × 40-iteration
// stencil2d trace is written to disk once, and every iteration decodes
// it with trace.OpenDir and analyzes it with critical-path recording.
func BenchmarkAnalyzeStoredTrace(b *testing.B) {
	prog, err := workloads.BuildByName("stencil2d", workloads.Options{Iterations: 40})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	mcfg := machine.Config{NRanks: 256, Seed: 1, Noise: dist.Exponential{MeanValue: 100}}
	if _, err := mpi.Run(mpi.Config{Machine: mcfg, TraceDir: dir}, prog); err != nil {
		b.Fatal(err)
	}
	model := &core.Model{
		Seed:       1,
		OSNoise:    dist.Exponential{MeanValue: 300},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		set, closeFn, err := trace.OpenDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Analyze(set, model, core.Options{RecordCritPath: true})
		if cerr := closeFn(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// replayBenchSet is the 64-rank sweep workload behind the
// compile-once acceptance pair below.
func replayBenchSet(b *testing.B) *trace.Set {
	return mustTrace(b, "stencil1d", 64, workloads.Options{Iterations: 10, CollEvery: 4}, 18)
}

// replayBenchModel is one Monte Carlo trial's perturbation, mixing all
// three sampled delta classes so both engines pay representative
// sampling and kernel costs.
func replayBenchModel(trial int) *core.Model {
	return &core.Model{
		Seed:       18 + uint64(trial),
		OSNoise:    dist.Exponential{MeanValue: 300},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.5},
	}
}

// BenchmarkReplayStreaming is the per-trial cost of re-running the
// streaming analyzer over a snapshot, the pre-compile Monte Carlo hot
// path. Its compiled counterpart below must beat it by ≥2x (see
// BENCH_replay.json for the recorded datapoint).
func BenchmarkReplayStreaming(b *testing.B) {
	snap, err := trace.NewSnapshot(replayBenchSet(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, release := snap.Acquire()
		_, err := core.Analyze(s, replayBenchModel(i), core.Options{})
		release()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayCompiled replays the same trials over the compiled
// program: the matcher ran once at compile time, so each iteration is
// a single pass over the flat op tape with pooled buffers.
func BenchmarkReplayCompiled(b *testing.B) {
	prog, err := core.Compile(replayBenchSet(b), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayCompiled(prog, replayBenchModel(i), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// memify drains a set into reusable in-memory traces.
func memify(b *testing.B, set *trace.Set) []*trace.MemTrace {
	b.Helper()
	out := make([]*trace.MemTrace, set.NRanks())
	for r := 0; r < set.NRanks(); r++ {
		m, err := trace.ReadAll(set.Rank(r))
		if err != nil {
			b.Fatal(err)
		}
		m.Hdr = set.Rank(r).Header()
		out[r] = m
	}
	return out
}

// sweepBenchConfig is the ≥32-point sweep behind the parallel-scaling
// benchmarks: 32 latency values, each an independent trace + replay.
func sweepBenchConfig(workers int) mpgraph.SweepConfig {
	return mpgraph.SweepConfig{
		Workload:        "tokenring",
		WorkloadOptions: workloads.Options{Iterations: 5},
		Machine:         machine.Config{NRanks: 16, Seed: 16},
		Param:           mpgraph.SweepLatency,
		From:            0, To: 775, Step: 25,
		ModelSeed: 1,
		Workers:   workers,
	}
}

func runSweepBench(b *testing.B, workers int) {
	b.Helper()
	cfg := sweepBenchConfig(workers)
	var res *mpgraph.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = mpgraph.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Points)), "sweep-points")
	b.ReportMetric(res.Fit.Slope, "slope-cycles-per-unit")
}

// BenchmarkSweepSerial is the single-worker reference for the replay
// fan-out engine; the Parallel variants below must reproduce its
// results bit-for-bit while scaling with the pool (≥3x at 8 workers on
// an 8-core runner).
func BenchmarkSweepSerial(b *testing.B)    { runSweepBench(b, 1) }
func BenchmarkSweepParallel2(b *testing.B) { runSweepBench(b, 2) }
func BenchmarkSweepParallel4(b *testing.B) { runSweepBench(b, 4) }
func BenchmarkSweepParallel8(b *testing.B) { runSweepBench(b, 8) }

// BenchmarkFacadePipeline measures the public API end to end, as a
// downstream user would drive it.
func BenchmarkFacadePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := mpgraph.Workload("tokenring", mpgraph.WorkloadOptions{Iterations: 5})
		if err != nil {
			b.Fatal(err)
		}
		run, err := mpgraph.Trace(mpgraph.RunConfig{
			Machine: mpgraph.MachineConfig{NRanks: 16, Seed: 15},
		}, prog)
		if err != nil {
			b.Fatal(err)
		}
		set, err := run.TraceSet()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mpgraph.Analyze(set, &mpgraph.Model{
			MsgLatency: dist.Constant{C: 100},
		}, mpgraph.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
