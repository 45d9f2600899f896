package sweep

import (
	"fmt"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/machine"
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

// TestSweepTrialsDeterminismAcrossEngines proves the engine choice is
// invisible: for every pool size the compiled Monte Carlo sweep
// fingerprints bit-identically to the streaming one. Trial seeds
// derive from the flattened (point × trial) index alone, so neither
// the engine nor how trials are scheduled can show through.
func TestSweepTrialsDeterminismAcrossEngines(t *testing.T) {
	base := Config{
		Workload:        "stencil1d",
		WorkloadOptions: workloads.Options{Iterations: 3, CollEvery: 2},
		Machine:         machine.Config{NRanks: 4, Seed: 13},
		Param:           ParamRanks,
		From:            2, To: 4, Step: 2,
		NoiseMean: 180,
		ModelSeed: 13,
		Trials:    5,
		Workers:   1,
	}
	ref := base
	ref.StreamingTrials = true
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := sweepFingerprint(want)
	for _, workers := range []int{1, 2, 4, 64} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fp := sweepFingerprint(got); fp != wantFP {
			t.Fatalf("compiled trials at workers=%d diverge from streaming trials:\n--- streaming\n%s\n--- compiled\n%s",
				workers, wantFP, fp)
		}
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
