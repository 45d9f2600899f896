// Package sweep runs perturbation parameter sweeps: trace the workload
// once per distinct tracing machine, analyze every point under a model
// derived from the swept value, and collect the delay series plus its
// linear fit — the programmatic form of the paper's Section 6.1
// protocol (trace once, ask the what-ifs afterwards), shared by the
// mpg-sweep tool, the benchmark harness, and the examples.
//
// Only ParamRanks changes the tracing machine, so a latency, noise or
// per-byte sweep traces once and every point reads that one trace. The
// traces and the points' replays (and Monte Carlo trials within a
// point) are independent, so Run fans them out across a bounded worker
// pool (Config.Workers). Parallel execution is bit-identical to
// serial: every replay derives all of its randomness from (seed, point,
// trial), never from scheduling order.
package sweep

import (
	"fmt"
	"sync"
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
	// Analyze tunes the analyzer.
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
	// Each distinct trace is compiled once (core.Compile) and every
	// trial of every point that shares it replays the compiled program
	// (core.ReplayCompiled), which is byte-identical to the streaming
	// analyzer but skips re-parsing and re-matching.
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

// tracePoint traces the workload on one tracing machine; v is the
// lowest sweep value that uses it and names it in a failure. Tracing
// is a pure function of (workload, options, machine config), so every
// point on the same machine shares the one trace, and distinct
// machines trace independently. The snapshot wraps the run's own
// records; nothing is copied.
func (cfg Config) tracePoint(v float64, mcfg machine.Config) (*trace.Snapshot, error) {
	defer cfg.Metrics.Time("sweep_trace").End()
	prog, err := workloads.BuildByName(cfg.Workload, cfg.WorkloadOptions)
	if err != nil {
		return nil, err
	}
	run, err := mpi.Run(mpi.Config{Machine: mcfg}, prog)
	if err != nil {
		return nil, fmt.Errorf("sweep: value %g: %w", v, err)
	}
	return trace.SnapshotFromMem(run.Traces)
}

// grid is a sweep's points grouped by tracing machine.
type grid struct {
	vals     []float64
	models   []*core.Model    // per point
	machine  []int            // per point: its index into machines
	machines []machine.Config // the distinct tracing machines, in first-use order
	first    []float64        // per machine: the lowest value that traces it
}

// plan derives every point's model and groups the points by tracing
// machine. pointModel changes nothing of cfg.Machine but NRanks, so the
// rank count identifies the machine. The first failing value wins, as
// in a serial loop.
func (cfg Config) plan(vals []float64) (grid, error) {
	g := grid{vals: vals, models: make([]*core.Model, len(vals)), machine: make([]int, len(vals))}
	index := map[int]int{} // NRanks → machine
	for i, v := range vals {
		model, mcfg, err := cfg.pointModel(v)
		if err != nil {
			return grid{}, err
		}
		m, ok := index[mcfg.NRanks]
		if !ok {
			m = len(g.machines)
			index[mcfg.NRanks] = m
			g.machines = append(g.machines, mcfg)
			g.first = append(g.first, v)
		}
		g.models[i], g.machine[i] = model, m
	}
	return g, nil
}

// sharedTrace is one tracing machine's trace in a single-trial sweep.
// The first of its points to run traces it; the last to take it drops
// it, so a sweep holds at most one trace per busy worker (a ranks sweep,
// one point per machine) and a latency, noise or per-byte sweep one in
// all.
type sharedTrace struct {
	once  sync.Once
	snap  *trace.Snapshot
	err   error
	users atomic.Int64 // points yet to take the trace
}

// eachPoint calls fn for every point of g across the pool, with a
// fresh Set over the trace of the point's machine. Each point first
// takes its machine's trace, tracing it if no other point has, so a
// failure is the one a serial loop over the points meets first: a
// failed trace is reported by its machine's lowest value.
func eachPoint[T any](cfg Config, g grid, popts parallel.Options, fn func(i int, v float64, set *trace.Set) (T, error)) ([]T, error) {
	traces := make([]sharedTrace, len(g.machines))
	for _, m := range g.machine {
		traces[m].users.Add(1)
	}
	out, err := parallel.Map(len(g.vals), popts, func(i int) (T, error) {
		m := g.machine[i]
		st := &traces[m]
		st.once.Do(func() { st.snap, st.err = cfg.tracePoint(g.first[m], g.machines[m]) })
		snap, err := st.snap, st.err
		if st.users.Add(-1) == 0 {
			st.snap = nil
		}
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(i, g.vals[i], snap.Set())
	})
	return out, parallel.UnwrapTask(err)
}

// EachPoint calls fn for every point of the sweep cfg describes, fanned
// across cfg.Workers, with a fresh Set over the trace of the point's
// tracing machine. Like Run, it traces each distinct machine once:
// only a ranks sweep traces per point. Results are in point order and
// the lowest-numbered failing point wins, as in a serial loop.
func EachPoint[T any](cfg Config, fn func(i int, v float64, set *trace.Set) (T, error)) ([]T, error) {
	g, err := cfg.plan(cfg.Values())
	if err != nil {
		return nil, err
	}
	return eachPoint(cfg, g, parallel.Options{Workers: cfg.Workers, Metrics: cfg.Metrics}, fn)
}

// Run executes the sweep: it derives every point's model, then
// analyzes the grid across the worker pool, tracing each distinct
// machine once. A single-trial point streams over its machine's trace
// (see eachPoint). With Trials > 1, every machine is traced and
// compiled before the per-point Monte Carlo trials replay (see
// runTrials). A failing model wins over any trace or analysis failure.
func Run(cfg Config) (*Result, error) {
	if cfg.Step <= 0 || cfg.To < cfg.From {
		return nil, fmt.Errorf("sweep: invalid range [%g,%g] step %g", cfg.From, cfg.To, cfg.Step)
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
	defer cfg.Metrics.Time("sweep_run").End()
	cfg.Metrics.Counter("sweep_points_total").Add(int64(len(vals)))
	g, err := cfg.plan(vals)
	if err != nil {
		return nil, err
	}

	var xs, ys []float64
	if cfg.Trials <= 1 {
		tick := cfg.progressTick(len(vals))
		results, err := eachPoint(cfg, g, popts, func(i int, v float64, set *trace.Set) (*core.Result, error) {
			defer tick()
			defer cfg.Metrics.Time("sweep_point").End()
			res, err := core.Analyze(set, g.models[i], cfg.Analyze)
			if err != nil {
				return nil, fmt.Errorf("sweep: value %g: %w", v, err)
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			out.Points = append(out.Points, Point{Value: vals[i], Result: res})
			xs = append(xs, vals[i])
			ys = append(ys, res.MaxFinalDelay)
		}
	} else {
		points, err := cfg.runTrials(g, popts)
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

// runTrials runs the Monte Carlo study in two fan-outs. The first
// traces and compiles each distinct machine (see core.Compile); the
// second replays the flattened (point × trial) grid, each point on its
// machine's program and each trial cloning its point's model with its
// own derived seed, so no sampler state is ever shared between
// replays. A failing trace or compile fails the sweep before any trial
// runs; within each fan-out the lowest-numbered failure wins, as in a
// serial loop over the same two phases.
func (cfg Config) runTrials(g grid, popts parallel.Options) ([]Point, error) {
	vals, trials := g.vals, cfg.Trials
	cfg.Metrics.Counter("sweep_trials_total").Add(int64(len(vals) * trials))
	cfg.Metrics.Counter("sweep_compiled_points_total").Add(int64(len(g.machines)))
	progs, err := parallel.Map(len(g.machines), popts, func(m int) (*core.Compiled, error) {
		snap, err := cfg.tracePoint(g.first[m], g.machines[m])
		if err != nil {
			return nil, err
		}
		prog, err := core.Compile(snap.Set(), cfg.Analyze)
		if err != nil {
			return nil, fmt.Errorf("sweep: value %g: %w", g.first[m], err)
		}
		return prog, nil
	})
	if err != nil {
		return nil, parallel.UnwrapTask(err)
	}
	tick := cfg.progressTick(len(vals) * trials)
	results, err := parallel.Map(len(vals)*trials, popts, func(t int) (*core.Result, error) {
		defer tick()
		defer cfg.Metrics.Time("sweep_point").End()
		p := t / trials
		trial := g.models[p].Clone()
		trial.Seed = parallel.TaskSeed(cfg.ModelSeed, t)
		res, err := core.ReplayCompiled(progs[g.machine[p]], trial, cfg.Analyze)
		if err != nil {
			return nil, fmt.Errorf("sweep: value %g trial %d: %w", vals[p], t%trials, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, parallel.UnwrapTask(err)
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
