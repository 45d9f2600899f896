// Package sweep runs perturbation parameter sweeps: trace a workload
// once per point, analyze under a model derived from the swept value,
// and collect the delay series plus its linear fit — the programmatic
// form of the paper's Section 6.1 protocol, shared by the mpg-sweep
// tool, the benchmark harness, and the examples.
//
// Sweep points (and Monte Carlo trials within a point) are independent
// replays over deterministic traces, so Run fans them out across a
// bounded worker pool (Config.Workers). Parallel execution is
// bit-identical to serial: every replay derives all of its randomness
// from (seed, point, trial), never from scheduling order.
package sweep

import (
	"fmt"
	"sync/atomic"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/obsv"
	"mpgraph/internal/parallel"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// Param selects which perturbation parameter the sweep varies.
type Param uint8

const (
	// ParamLatency sweeps a constant per-message-edge delta (the
	// paper's §6.1 axis).
	ParamLatency Param = iota
	// ParamNoise sweeps a constant per-local-edge delta.
	ParamNoise
	// ParamPerByte sweeps a constant per-byte message delta.
	ParamPerByte
	// ParamRanks sweeps the world size with a fixed exponential noise
	// model (scaling studies).
	ParamRanks
)

// String returns the parameter name.
func (p Param) String() string {
	switch p {
	case ParamLatency:
		return "latency"
	case ParamNoise:
		return "noise"
	case ParamPerByte:
		return "perbyte"
	case ParamRanks:
		return "ranks"
	}
	return fmt.Sprintf("param(%d)", uint8(p))
}

// ParseParam resolves a parameter name.
func ParseParam(name string) (Param, error) {
	switch name {
	case "latency", "":
		return ParamLatency, nil
	case "noise":
		return ParamNoise, nil
	case "perbyte":
		return ParamPerByte, nil
	case "ranks":
		return ParamRanks, nil
	}
	return ParamLatency, fmt.Errorf("sweep: unknown parameter %q (latency, noise, perbyte, ranks)", name)
}

// Config describes a sweep.
type Config struct {
	// Workload is the registered workload name.
	Workload string
	// WorkloadOptions parameterize it.
	WorkloadOptions workloads.Options
	// Machine is the tracing platform (NRanks is overridden per point
	// for ParamRanks).
	Machine machine.Config
	// Param is the swept axis.
	Param Param
	// From, To, Step define the inclusive sweep range.
	From, To, Step float64
	// NoiseMean is the fixed exponential noise mean used by ParamRanks.
	NoiseMean float64
	// Propagation selects the delta-combining mode of the point models
	// (additive by default, anchored for the literal Eq. 1/2 reading).
	Propagation core.PropagationMode
	// ModelSeed seeds perturbation sampling. With Trials > 1 it is the
	// base from which per-trial seeds are derived.
	ModelSeed uint64
	// Analyze tunes the analyzer. Its Graph sink must be nil: every
	// replay of the sweep would append to the one graph, concurrently
	// for Workers > 1.
	Analyze core.Options
	// Workers bounds the replay worker pool; zero or negative means
	// GOMAXPROCS. Results are identical for every pool size.
	Workers int
	// Trials, when > 1, turns each point into a Monte Carlo study: the
	// point's trace is replayed Trials times, each trial analyzing
	// under an independent seed derived as hash(ModelSeed, task) so
	// that sampled-distribution models (e.g. exponential noise) are
	// integrated over their randomness instead of observed once. The
	// per-point Result is trial 0's; the aggregate lands in
	// Point.Trials. Values <= 1 run the classic single replay.
	//
	// Each point's trace is compiled once (core.Compile) and every
	// trial replays the compiled program (core.ReplayCompiled), which
	// is byte-identical to the streaming analyzer but skips re-parsing
	// and re-matching.
	Trials int
	// Metrics, when non-nil, receives sweep observability: tracing
	// phase timers, point/trial counters, the pool metrics (it is
	// passed into the worker pool), and — unless Analyze.Metrics is
	// already set — the engine counters of every replay. Out-of-band:
	// attaching a registry changes no sweep result.
	Metrics *obsv.Registry
	// Progress, when non-nil, is invoked once per completed replay task
	// with the number done so far and the total. It is called from
	// worker goroutines and must be safe for concurrent use
	// (obsv.Progress.Add is; so is any atomic counter).
	Progress func(done, total int)
}

// Point is one sweep observation.
type Point struct {
	// Value is the swept parameter's value.
	Value float64
	// Result is the full analysis outcome (trial 0's when Trials > 1).
	Result *core.Result
	// Trials aggregates the Monte Carlo trials; nil unless
	// Config.Trials > 1.
	Trials *TrialStats
}

// TrialStats summarizes the MaxFinalDelay observed across one point's
// Monte Carlo trials.
type TrialStats struct {
	// Trials is the number of replays aggregated.
	Trials int
	// MeanMax, P95Max, MinMax, MaxMax and StdDevMax summarize the
	// trials' MaxFinalDelay (the paper's headline slowdown per run).
	MeanMax, P95Max, MinMax, MaxMax, StdDevMax float64
}

// Result is a completed sweep.
type Result struct {
	// Param echoes the swept axis.
	Param Param
	// Points holds the observations in sweep order.
	Points []Point
	// Fit is the linear fit of MaxFinalDelay against Value (the trial
	// mean when Trials > 1; zero when fewer than two points or
	// constant x).
	Fit dist.LinearFit
	// HasFit reports whether Fit is meaningful.
	HasFit bool
}

// Values enumerates the sweep grid of cfg (the inclusive From..To
// range in Step increments, accumulated exactly as Run walks it).
func (cfg Config) Values() []float64 {
	var vals []float64
	for v := cfg.From; v <= cfg.To+1e-9; v += cfg.Step {
		vals = append(vals, v)
	}
	return vals
}

// pointModel derives the perturbation model and machine configuration
// for one sweep value.
func (cfg Config) pointModel(v float64) (*core.Model, machine.Config, error) {
	model := &core.Model{Seed: cfg.ModelSeed, Propagation: cfg.Propagation}
	mcfg := cfg.Machine
	switch cfg.Param {
	case ParamLatency:
		model.MsgLatency = dist.Constant{C: v}
	case ParamNoise:
		model.OSNoise = dist.Constant{C: v}
	case ParamPerByte:
		model.PerByte = dist.Constant{C: v}
	case ParamRanks:
		if v < 1 {
			return nil, mcfg, fmt.Errorf("sweep: ranks value %g < 1", v)
		}
		mcfg.NRanks = int(v)
		model.OSNoise = dist.Exponential{MeanValue: cfg.NoiseMean}
	}
	return model, mcfg, nil
}

// tracePoint traces the workload for one sweep value. Tracing is a
// pure function of (workload, options, machine config), so concurrent
// points re-trace independently.
func (cfg Config) tracePoint(v float64, mcfg machine.Config) (*trace.Set, error) {
	defer cfg.Metrics.Timer("sweep_trace").Start()()
	prog, err := workloads.BuildByName(cfg.Workload, cfg.WorkloadOptions)
	if err != nil {
		return nil, err
	}
	run, err := mpi.Run(mpi.Config{Machine: mcfg}, prog)
	if err != nil {
		return nil, fmt.Errorf("sweep: value %g: %w", v, err)
	}
	return run.TraceSet()
}

// Run executes the sweep, fanning the grid (and, with Trials > 1, the
// per-point Monte Carlo trials) across the worker pool.
func Run(cfg Config) (*Result, error) {
	if cfg.Step <= 0 || cfg.To < cfg.From {
		return nil, fmt.Errorf("sweep: invalid range [%g,%g] step %g", cfg.From, cfg.To, cfg.Step)
	}
	if cfg.Analyze.Graph != nil {
		return nil, fmt.Errorf("sweep: Analyze.Graph cannot be shared by concurrent replays")
	}
	if _, err := workloads.BuildByName(cfg.Workload, cfg.WorkloadOptions); err != nil {
		return nil, err
	}
	vals := cfg.Values()
	out := &Result{Param: cfg.Param}
	popts := parallel.Options{Workers: cfg.Workers, Metrics: cfg.Metrics}
	if cfg.Analyze.Metrics == nil {
		cfg.Analyze.Metrics = cfg.Metrics
	}
	defer cfg.Metrics.Timer("sweep_run").Start()()
	cfg.Metrics.Counter("sweep_points_total").Add(int64(len(vals)))

	var xs, ys []float64
	if cfg.Trials <= 1 {
		tick := cfg.progressTick(len(vals))
		results, err := parallel.Map(len(vals), popts, func(i int) (*core.Result, error) {
			defer tick()
			defer cfg.Metrics.SpanStart("sweep_point")()
			v := vals[i]
			model, mcfg, err := cfg.pointModel(v)
			if err != nil {
				return nil, err
			}
			set, err := cfg.tracePoint(v, mcfg)
			if err != nil {
				return nil, err
			}
			res, err := core.Analyze(set, model, cfg.Analyze)
			if err != nil {
				return nil, fmt.Errorf("sweep: value %g: %w", v, err)
			}
			return res, nil
		})
		if err != nil {
			return nil, unwrapTask(err)
		}
		for i, res := range results {
			out.Points = append(out.Points, Point{Value: vals[i], Result: res})
			xs = append(xs, vals[i])
			ys = append(ys, res.MaxFinalDelay)
		}
	} else {
		points, err := cfg.runTrials(vals, popts)
		if err != nil {
			return nil, err
		}
		out.Points = points
		for _, p := range points {
			xs = append(xs, p.Value)
			ys = append(ys, p.Trials.MeanMax)
		}
	}
	if len(xs) >= 2 && xs[0] != xs[len(xs)-1] {
		out.Fit = dist.FitLinear(xs, ys)
		out.HasFit = true
	}
	return out, nil
}

// trialPoint is one Monte Carlo point's shared input: its model and
// its compiled trace, both read-only across the point's trials.
type trialPoint struct {
	model *core.Model
	prog  *core.Compiled
}

// runTrials runs the Monte Carlo study in two fan-outs. The first
// traces and compiles each point (see core.Compile); the second
// replays the flattened (point × trial) grid, each trial cloning its
// point's model with its own derived seed, so no sampler state is ever
// shared between replays. A failing point fails the sweep before any
// trial runs; within each fan-out the lowest-numbered failure wins,
// as in a serial loop over the same two phases.
func (cfg Config) runTrials(vals []float64, popts parallel.Options) ([]Point, error) {
	trials := cfg.Trials
	cfg.Metrics.Counter("sweep_trials_total").Add(int64(len(vals) * trials))
	cfg.Metrics.Counter("sweep_compiled_points_total").Add(int64(len(vals)))
	points, err := parallel.Map(len(vals), popts, func(p int) (trialPoint, error) {
		v := vals[p]
		model, mcfg, err := cfg.pointModel(v)
		if err != nil {
			return trialPoint{}, err
		}
		set, err := cfg.tracePoint(v, mcfg)
		if err != nil {
			return trialPoint{}, err
		}
		prog, err := core.Compile(set, cfg.Analyze)
		if err != nil {
			return trialPoint{}, fmt.Errorf("sweep: value %g: %w", v, err)
		}
		return trialPoint{model: model, prog: prog}, nil
	})
	if err != nil {
		return nil, unwrapTask(err)
	}
	tick := cfg.progressTick(len(vals) * trials)
	results, err := parallel.Map(len(vals)*trials, popts, func(t int) (*core.Result, error) {
		defer tick()
		defer cfg.Metrics.SpanStart("sweep_point")()
		pt := points[t/trials]
		trial := pt.model.Clone()
		trial.Seed = parallel.TaskSeed(cfg.ModelSeed, t)
		res, err := core.ReplayCompiled(pt.prog, trial, cfg.Analyze)
		if err != nil {
			return nil, fmt.Errorf("sweep: value %g trial %d: %w", vals[t/trials], t%trials, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, unwrapTask(err)
	}
	return aggregateTrialPoints(vals, results, trials), nil
}

// aggregateTrialPoints folds the flattened (point × trial) results
// into per-point trial statistics.
func aggregateTrialPoints(vals []float64, results []*core.Result, trials int) []Point {
	points := make([]Point, len(vals))
	maxima := make([]float64, trials)
	for p, v := range vals {
		var w dist.Welford
		for k := 0; k < trials; k++ {
			maxima[k] = results[p*trials+k].MaxFinalDelay
			w.Add(maxima[k])
		}
		points[p] = Point{
			Value:  v,
			Result: results[p*trials],
			Trials: &TrialStats{
				Trials:    trials,
				MeanMax:   w.Mean(),
				P95Max:    dist.Quantile(maxima, 0.95),
				MinMax:    w.Min(),
				MaxMax:    w.Max(),
				StdDevMax: w.StdDev(),
			},
		}
	}
	return points
}

// progressTick adapts Config.Progress into a per-task completion hook.
// The done count is an atomic, so the hook is safe to call from any
// worker; a nil Progress yields a no-op.
func (cfg Config) progressTick(total int) func() {
	if cfg.Progress == nil {
		return func() {}
	}
	var done atomic.Int64
	return func() {
		cfg.Progress(int(done.Add(1)), total)
	}
}

// unwrapTask strips the engine's task wrapper so sweep callers see the
// same error text a serial loop produced.
func unwrapTask(err error) error {
	if te, ok := err.(*parallel.TaskError); ok {
		return te.Err
	}
	return err
}
