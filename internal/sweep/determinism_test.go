package sweep

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/obsv"
	"mpgraph/internal/parallel"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// fingerprint renders every observable field of an analysis result —
// per-rank delays, warnings, per-region attribution, aggregate stats —
// with exact (hex float) formatting, so two results fingerprint
// identically iff they are bit-identical.
func fingerprint(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nranks=%d events=%d max=%x mean=%x makespan=%x window=%d violations=%d\n",
		res.NRanks, res.Events, res.MaxFinalDelay, res.MeanFinalDelay,
		res.MakespanDelay, res.WindowHighWater, res.OrderViolations)
	fmt.Fprintf(&b, "stats n=%d mean=%x var=%x min=%x max=%x\n",
		res.DelayStats.N(), res.DelayStats.Mean(), res.DelayStats.Variance(),
		res.DelayStats.Min(), res.DelayStats.Max())
	for r, rr := range res.Ranks {
		fmt.Fprintf(&b, "rank %d: ev=%d end=%d delay=%x inj=%x abs=%d prop=%d slack=%x induced=%x own=%x remote=%x msg=%x\n",
			r, rr.Events, rr.OrigEnd, rr.FinalDelay, rr.InjectedLocal,
			rr.Absorbed, rr.Propagated, rr.SlackAbsorbed, rr.DelayInduced,
			rr.Attr.OwnNoise, rr.Attr.RemoteNoise, rr.Attr.MsgDelta)
	}
	for _, key := range res.RegionList() {
		reg := res.Regions[key]
		fmt.Fprintf(&b, "region %d/%d: ev=%d abs=%d prop=%d growth=%x\n",
			key.Rank, key.Region, reg.Events, reg.Absorbed, reg.Propagated, reg.DelayGrowth)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}

// sweepFingerprint folds a whole sweep, points and fit, into one
// comparable string.
func sweepFingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "param=%s hasfit=%v slope=%x intercept=%x r2=%x\n",
		res.Param, res.HasFit, res.Fit.Slope, res.Fit.Intercept, res.Fit.R2)
	for _, p := range res.Points {
		fmt.Fprintf(&b, "== point %x\n%s", p.Value, fingerprint(p.Result))
		if p.Trials != nil {
			fmt.Fprintf(&b, "trials=%d mean=%x p95=%x min=%x max=%x sd=%x\n",
				p.Trials.Trials, p.Trials.MeanMax, p.Trials.P95Max,
				p.Trials.MinMax, p.Trials.MaxMax, p.Trials.StdDevMax)
		}
	}
	return b.String()
}

// TestSweepDeterminismAcrossWorkers is the load-bearing equivalence
// test for the parallel replay engine: for every seed × propagation
// mode combination, workers=1 and workers=8 must produce byte-identical
// sweeps — same slowdowns, same warnings, same per-region attribution.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2006} {
		for _, mode := range []core.PropagationMode{core.PropagationAdditive, core.PropagationAnchored} {
			cfg := Config{
				Workload:        "cg",
				WorkloadOptions: workloads.Options{Iterations: 3},
				Machine:         machine.Config{NRanks: 6, Seed: seed},
				Param:           ParamRanks,
				From:            2, To: 6, Step: 2,
				NoiseMean:   150,
				ModelSeed:   seed,
				Propagation: mode,
			}
			cfg.Workers = 1
			serial, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed=%d mode=%s serial: %v", seed, mode, err)
			}
			cfg.Workers = 8
			par, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed=%d mode=%s parallel: %v", seed, mode, err)
			}
			a, b := sweepFingerprint(serial), sweepFingerprint(par)
			if a != b {
				t.Fatalf("seed=%d mode=%s: workers=1 and workers=8 diverge:\n--- serial\n%s\n--- parallel\n%s",
					seed, mode, a, b)
			}
		}
	}
}

// TestSweepTrialsDeterminismAcrossWorkers proves the Monte Carlo mode
// keeps the same guarantee: per-trial seeds depend only on the task
// index, so the trial aggregate is pool-size invariant.
func TestSweepTrialsDeterminismAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		for _, mode := range []core.PropagationMode{core.PropagationAdditive, core.PropagationAnchored} {
			cfg := Config{
				Workload:        "tokenring",
				WorkloadOptions: workloads.Options{Iterations: 3},
				Machine:         machine.Config{NRanks: 4, Seed: seed},
				Param:           ParamRanks,
				From:            2, To: 4, Step: 2,
				NoiseMean:   200,
				ModelSeed:   seed,
				Propagation: mode,
				Trials:      5,
			}
			cfg.Workers = 1
			serial, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed=%d mode=%s serial: %v", seed, mode, err)
			}
			cfg.Workers = 8
			par, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed=%d mode=%s parallel: %v", seed, mode, err)
			}
			if a, b := sweepFingerprint(serial), sweepFingerprint(par); a != b {
				t.Fatalf("seed=%d mode=%s trials diverge:\n--- serial\n%s\n--- parallel\n%s",
					seed, mode, a, b)
			}
		}
	}
}

// streamingTrials is the reference the compiled Monte Carlo path must
// reproduce: each point traced once, then every trial run through the
// streaming analyzer under the seed Run derives for its flattened
// (point × trial) index.
func streamingTrials(t *testing.T, cfg Config) []Point {
	t.Helper()
	vals := cfg.Values()
	var results []*core.Result
	for _, v := range vals {
		model, mcfg, err := cfg.pointModel(v)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := cfg.tracePoint(v, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < cfg.Trials; k++ {
			trial := model.Clone()
			trial.Seed = parallel.TaskSeed(cfg.ModelSeed, len(results))
			res, err := core.Analyze(snap.Set(), trial, cfg.Analyze)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	points := make([]Point, len(vals))
	for p, v := range vals {
		maxima := make([]float64, cfg.Trials)
		for k := range maxima {
			maxima[k] = results[p*cfg.Trials+k].MaxFinalDelay
		}
		points[p] = Point{Value: v, Result: results[p*cfg.Trials], Trials: trialStats(maxima)}
	}
	return points
}

// TestSweepTrialsDeterminismAcrossEngines proves the engine is
// invisible: for every pool size the compiled Monte Carlo sweep is
// deeply equal, point by point and trial aggregate by trial aggregate,
// to trials run through the streaming analyzer. Trial seeds derive
// from the flattened (point × trial) index alone, so neither the
// engine nor how trials are scheduled can show through.
func TestSweepTrialsDeterminismAcrossEngines(t *testing.T) {
	configs := map[string]Config{
		"ranks": {
			Workload:        "stencil1d",
			WorkloadOptions: workloads.Options{Iterations: 3, CollEvery: 2},
			Machine:         machine.Config{NRanks: 4, Seed: 13},
			Param:           ParamRanks,
			From:            2, To: 4, Step: 2,
			NoiseMean: 180,
			ModelSeed: 13,
			Trials:    5,
		},
		"latency": {
			Workload:        "stencil1d",
			WorkloadOptions: workloads.Options{Iterations: 3, CollEvery: 2},
			Machine:         machine.Config{NRanks: 4, Seed: 9},
			Param:           ParamLatency,
			From:            0, To: 300, Step: 150,
			ModelSeed: 17,
			Trials:    4,
		},
	}
	for name, base := range configs {
		t.Run(name, func(t *testing.T) {
			want := streamingTrials(t, base)
			for _, workers := range []int{1, 2, 4, 64} {
				cfg := base
				cfg.Workers = workers
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(got.Points) != len(want) {
					t.Fatalf("workers=%d: %d points, want %d", workers, len(got.Points), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(want[i], got.Points[i]) {
						t.Fatalf("workers=%d point %d: compiled trials diverge from streaming trials:\n--- streaming %+v\n%s--- compiled %+v\n%s",
							workers, i, *want[i].Trials, fingerprint(want[i].Result), *got.Points[i].Trials, fingerprint(got.Points[i].Result))
					}
				}
			}
		})
	}
}

// TestSweepTrialsAggregates sanity-checks the Monte Carlo statistics:
// a sampled noise model must show trial-to-trial spread with coherent
// min ≤ mean ≤ p95 ≤ max ordering, and trial 0 must be the reported
// representative Result.
func TestSweepTrialsAggregates(t *testing.T) {
	cfg := Config{
		Workload:        "cg",
		WorkloadOptions: workloads.Options{Iterations: 3},
		Machine:         machine.Config{NRanks: 4, Seed: 9},
		Param:           ParamRanks,
		From:            4, To: 4, Step: 1,
		NoiseMean: 300,
		ModelSeed: 9,
		Trials:    16,
		Workers:   4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d", len(res.Points))
	}
	p := res.Points[0]
	ts := p.Trials
	if ts == nil || ts.Trials != 16 {
		t.Fatalf("trial stats missing: %+v", ts)
	}
	if !(ts.MinMax <= ts.MeanMax && ts.MeanMax <= ts.MaxMax && ts.P95Max <= ts.MaxMax && ts.MinMax <= ts.P95Max) {
		t.Fatalf("incoherent aggregate ordering: %+v", ts)
	}
	if ts.StdDevMax <= 0 || ts.MinMax == ts.MaxMax {
		t.Fatalf("sampled noise shows no trial spread: %+v", ts)
	}
	if p.Result == nil || p.Result.MaxFinalDelay <= 0 {
		t.Fatal("representative result missing")
	}
	// Trials must broaden, not shift, the study: every trial analyzed
	// the same trace, so event counts agree with the representative.
	if p.Result.NRanks != 4 {
		t.Fatalf("representative NRanks = %d", p.Result.NRanks)
	}
}

// TestSweepErrorsMatchSerialUnderParallelism: a failing point must
// surface the same error regardless of the pool size, and a bad grid
// value must fail even when other tasks are in flight.
func TestSweepErrorsMatchSerialUnderParallelism(t *testing.T) {
	cfg := Config{
		Workload:        "tokenring",
		WorkloadOptions: workloads.Options{Iterations: 2},
		Machine:         machine.Config{NRanks: 2, Seed: 1},
		Param:           ParamRanks,
		From:            0, To: 6, Step: 1, // value 0 is invalid for ranks
		NoiseMean: 100,
	}
	cfg.Workers = 1
	_, err1 := Run(cfg)
	cfg.Workers = 8
	_, err8 := Run(cfg)
	if err1 == nil || err8 == nil {
		t.Fatal("invalid ranks value accepted")
	}
	if err1.Error() != err8.Error() {
		t.Fatalf("error text depends on pool size: %q vs %q", err1, err8)
	}
}

// retracedPoints is the reference a trace-once sweep must reproduce:
// every point traced afresh on its own machine, as if no two points
// shared a trace, then analyzed once or, with Trials > 1, through
// streamingTrials' per-trial analyses.
func retracedPoints(t *testing.T, cfg Config) []Point {
	t.Helper()
	if cfg.Trials > 1 {
		return streamingTrials(t, cfg)
	}
	var points []Point
	for _, v := range cfg.Values() {
		model, mcfg, err := cfg.pointModel(v)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := cfg.tracePoint(v, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Analyze(snap.Set(), model, cfg.Analyze)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, Point{Value: v, Result: res})
	}
	return points
}

// TestSweepTracesEachMachineOnce: only ParamRanks changes the tracing
// machine, so a latency, noise or per-byte sweep traces (and, with
// trials, compiles) once, while a ranks sweep traces every point. At
// every pool size each point is deeply equal to a per-point re-trace.
func TestSweepTracesEachMachineOnce(t *testing.T) {
	for _, p := range []Param{ParamLatency, ParamNoise, ParamPerByte, ParamRanks} {
		for _, trials := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/trials=%d", p, trials), func(t *testing.T) {
				base := Config{
					Workload:        "stencil1d",
					WorkloadOptions: workloads.Options{Iterations: 3, CollEvery: 2},
					Machine:         machine.Config{NRanks: 4, Seed: 21, Noise: dist.Exponential{MeanValue: 40}},
					Param:           p,
					From:            0, To: 200, Step: 100,
					NoiseMean: 120,
					ModelSeed: 21,
					Trials:    trials,
				}
				traces := int64(1)
				if p == ParamRanks {
					base.From, base.To, base.Step = 2, 4, 1
					traces = 3
				}
				want := retracedPoints(t, base)
				for _, workers := range []int{1, 2, 8} {
					cfg := base
					cfg.Workers = workers
					cfg.Metrics = obsv.NewRegistry()
					got, err := Run(cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					snap := cfg.Metrics.Snapshot()
					if n := snap.Timers["sweep_trace"].Count; n != traces {
						t.Errorf("workers=%d: traced %d times, want %d", workers, n, traces)
					}
					if trials > 1 {
						if n := snap.Counters["core_compiles_total"]; n != traces {
							t.Errorf("workers=%d: compiled %d times, want %d", workers, n, traces)
						}
					}
					if len(got.Points) != len(want) {
						t.Fatalf("workers=%d: %d points, want %d", workers, len(got.Points), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(want[i], got.Points[i]) {
							t.Fatalf("workers=%d point %d: shared-trace result diverges from a re-trace:\n--- re-traced\n%s--- shared\n%s",
								workers, i, fingerprint(want[i].Result), fingerprint(got.Points[i].Result))
						}
					}
				}
			})
		}
	}
}

// TestSweepSharedTraceErrorText: a trace shared by every point fails
// once, named by the lowest value that uses it — the text a loop that
// traced each point produced — and no point is analyzed.
func TestSweepSharedTraceErrorText(t *testing.T) {
	for _, trials := range []int{1, 3} {
		for _, workers := range []int{1, 8} {
			reg := obsv.NewRegistry()
			_, err := Run(Config{
				Workload: "tokenring",
				Machine:  machine.Config{NRanks: 4, Seed: 1, BytesPerCycle: -1},
				Param:    ParamLatency,
				From:     100, To: 300, Step: 100,
				Trials:  trials,
				Workers: workers,
				Metrics: reg,
			})
			const want = "sweep: value 100: machine: negative bandwidth -1"
			if err == nil || err.Error() != want {
				t.Fatalf("trials=%d workers=%d: err = %v, want %q", trials, workers, err, want)
			}
			snap := reg.Snapshot()
			if n := snap.Timers["sweep_trace"].Count; n != 1 {
				t.Errorf("trials=%d workers=%d: traced %d times, want 1", trials, workers, n)
			}
			if n := snap.Counters["core_events_total"]; n != 0 {
				t.Errorf("trials=%d workers=%d: analyzed %d events after the trace failed", trials, workers, n)
			}
		}
	}
}

// TestRanksSweepDropsEachTrace: every point of a ranks sweep is a
// machine of its own, so a single-trial sweep must hold no more traces
// than busy workers. With one worker, each earlier point's trace is
// collectable by the time the next point is analyzed.
func TestRanksSweepDropsEachTrace(t *testing.T) {
	cfg := Config{
		Workload:        "tokenring",
		WorkloadOptions: workloads.Options{Iterations: 2},
		Machine:         machine.Config{NRanks: 2, Seed: 1},
		Param:           ParamRanks,
		From:            2, To: 6, Step: 1,
		Workers: 1,
	}
	var held []weak.Pointer[trace.Record]
	_, err := EachPoint(cfg, func(i int, v float64, set *trace.Set) (int, error) {
		runtime.GC()
		for k, w := range held {
			if w.Value() != nil {
				t.Errorf("point %d: the trace of point %d is still held", i, k)
			}
		}
		held = append(held, weak.Make(&set.Rank(0).(*trace.MemTrace).Records[0]))
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != 5 {
		t.Fatalf("visited %d points, want 5", len(held))
	}
}
