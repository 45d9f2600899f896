package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/obsv"
	"mpgraph/internal/parallel"
	"mpgraph/internal/report"
	"mpgraph/internal/sweep"
	"mpgraph/internal/timeline"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// workloadNames lists the benchmark's workloads in run order. Each one
// is dominated by a different layer and leaves at least one other layer
// idle (README.md has the table):
//
//   - analyze-stencil2d: one what-if on a large stored trace; the
//     streaming analyzer dominates, decode is the rest.
//   - montecarlo-stencil1d: compile once, replay many; compiled replay
//     dominates, decode and the streaming analyzer never run.
//   - timeline-cg: a collective-heavy analysis with the interval hook;
//     the Perfetto export dominates.
//   - sweep-tokenring: the paper's §6.1 protocol; every point is
//     re-traced, so trace generation dominates.
var workloadNames = []string{"analyze-stencil2d", "montecarlo-stencil1d", "timeline-cg", "sweep-tokenring"}

func knownWorkload(name string) bool { return slices.Contains(workloadNames, name) }

// params are the inputs a workload's numbers depend on. -compare
// refuses to compare runs whose params differ.
type params struct {
	Workload  string  `json:"workload"`
	Ranks     int     `json:"ranks,omitempty"`
	Iters     int     `json:"iters"`
	CollEvery int     `json:"coll_every,omitempty"`
	Sweep     string  `json:"sweep,omitempty"`
	From      float64 `json:"from,omitempty"`
	To        float64 `json:"to,omitempty"`
	Step      float64 `json:"step,omitempty"`
	Trials    int     `json:"trials,omitempty"`
	Model     string  `json:"model"`
	Workers   int     `json:"workers"`
}

// A bench is one workload: the set-up its first operation needs, the
// user operation itself, and the same operation rebuilt from direct
// calls into each layer for the traced run.
type bench interface {
	params() params
	// setup produces what the first op needs; it is timed as setup_s.
	setup() error
	// op runs user operation i and returns the number of perturbation
	// analyses it completed.
	op(i int) (int, error)
	// check verifies the output of the latest op, which was op i,
	// outside its timed span.
	check(i int) error
	// tracedSetup rebuilds setup from layer calls under a "setup" span
	// and returns the representative trace the layer probes run on.
	tracedSetup(t *tracer) (probeInput, error)
	// tracedOp rebuilds op i from layer calls under an "op" span and
	// checks that its output equals that of the untraced op i, which
	// ran just before it.
	tracedOp(t *tracer, i int) error
	// eventsPerOp is the number of trace events one op consumes.
	eventsPerOp() int64
}

// modelSeed derives the perturbation seed of op i from the run seed.
func modelSeed(seed uint64, i int) uint64 {
	return parallel.TaskSeed(parallel.TaskSeed(seed, 1), i)
}

// tracingMachine is the platform every workload is traced on. Its
// seed-derived OS noise makes the traces, not only the models, a
// function of -seed.
func tracingMachine(seed uint64, ranks int) machine.Config {
	return machine.Config{
		NRanks: ranks,
		Seed:   parallel.TaskSeed(seed, 0),
		Noise:  dist.Exponential{MeanValue: 100},
	}
}

// whatIfModel is the model of the analysis workloads: one term of each
// class the engine samples — per local edge, per message, per byte.
func whatIfModel(seed uint64, i int, coll core.CollectiveMode) *core.Model {
	return &core.Model{
		Seed:        modelSeed(seed, i),
		OSNoise:     dist.Exponential{MeanValue: 300},
		MsgLatency:  dist.Exponential{MeanValue: 500},
		PerByte:     dist.Constant{C: 0.5},
		Collectives: coll,
	}
}

func newBench(name string, seed uint64, quick bool, dir string) bench {
	workers := runtime.GOMAXPROCS(0)
	switch name {
	case "analyze-stencil2d":
		ranks, iters := 256, 40
		if quick {
			ranks, iters = 16, 4
		}
		return newAnalyzeBench("stencil2d", ranks, iters, seed, core.CollectiveApprox, false, dir)
	case "timeline-cg":
		ranks, iters := 128, 20
		if quick {
			ranks, iters = 8, 3
		}
		return newAnalyzeBench("cg", ranks, iters, seed, core.CollectiveExplicit, true, dir)
	case "montecarlo-stencil1d":
		cfg := sweep.Config{
			Workload:        "stencil1d",
			WorkloadOptions: workloads.Options{Iterations: 10, CollEvery: 4},
			Machine:         tracingMachine(seed, 0),
			Param:           sweep.ParamRanks,
			From:            32, To: 128, Step: 32,
			NoiseMean: 300,
			Trials:    250,
			Workers:   workers,
		}
		if quick {
			cfg.WorkloadOptions.Iterations = 3
			cfg.From, cfg.To, cfg.Step, cfg.Trials = 4, 8, 4, 8
		}
		return newSweepBench(cfg, seed, dir)
	case "sweep-tokenring":
		ranks, iters := 128, 10
		cfg := sweep.Config{
			Workload: "tokenring",
			Param:    sweep.ParamLatency,
			From:     0, To: 700, Step: 100,
			Workers: workers,
		}
		if quick {
			ranks, iters, cfg.To = 8, 3, 300
		}
		cfg.WorkloadOptions = workloads.Options{Iterations: iters}
		cfg.Machine = tracingMachine(seed, ranks)
		return newSweepBench(cfg, seed, dir)
	}
	panic("mpg-perf: unknown workload " + name)
}

// analyzeBench is one what-if analysis of a stored trace, as
// `mpg-analyze -critpath` runs it: decode the trace files, analyze them
// under the model, print the analysis and critical-path tables. With
// timeline set it is `mpg-analyze -timeline` instead: the analysis
// feeds the interval hook, and the op prints the wait-state table and
// writes the Perfetto export into a reused buffer.
type analyzeBench struct {
	p        params
	wl       string
	wopts    workloads.Options
	mcfg     machine.Config
	seed     uint64
	coll     core.CollectiveMode
	timeline bool
	dir      string // trace files written by setup

	events, traceBytes int64

	// Outputs of the latest op, checked outside its timed span.
	res    *core.Result
	tl     *timeline.Timeline
	text   bytes.Buffer
	export bytes.Buffer
}

func newAnalyzeBench(wl string, ranks, iters int, seed uint64, coll core.CollectiveMode, tl bool, dir string) *analyzeBench {
	b := &analyzeBench{
		wl:       wl,
		wopts:    workloads.Options{Iterations: iters},
		mcfg:     tracingMachine(seed, ranks),
		seed:     seed,
		coll:     coll,
		timeline: tl,
		dir:      filepath.Join(dir, "traces"),
	}
	m := b.model(0)
	b.p = params{
		Workload: wl, Ranks: ranks, Iters: iters,
		Model: fmt.Sprintf("noise=%v latency=%v perbyte=%v collectives=%v timeline=%t",
			m.OSNoise, m.MsgLatency, m.PerByte, m.Collectives, tl),
		Workers: 1,
	}
	return b
}

func (b *analyzeBench) params() params     { return b.p }
func (b *analyzeBench) eventsPerOp() int64 { return b.events }

func (b *analyzeBench) model(i int) *core.Model { return whatIfModel(b.seed, i, b.coll) }

// newOptions returns the analyzer options of one op; with the timeline
// on it also starts the op's fresh interval recorder.
func (b *analyzeBench) newOptions(reg *obsv.Registry) core.Options {
	opts := core.Options{RecordCritPath: true, Metrics: reg}
	if b.timeline {
		b.tl = timeline.New(b.p.Ranks)
		opts.Interval = b.tl.Record
	}
	return opts
}

func (b *analyzeBench) setup() error {
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	prog, err := workloads.BuildByName(b.wl, b.wopts)
	if err != nil {
		return err
	}
	run, err := mpi.Run(mpi.Config{Machine: b.mcfg, TraceDir: b.dir}, prog)
	if err != nil {
		return err
	}
	b.events = run.Stats.Events
	b.traceBytes, err = dirBytes(b.dir)
	return err
}

func (b *analyzeBench) op(i int) (int, error) {
	set, closeFn, err := trace.OpenDir(b.dir)
	if err != nil {
		return 0, err
	}
	res, err := core.Analyze(set, b.model(i), b.newOptions(nil))
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	b.res = res
	if err := b.render(res); err != nil {
		return 0, err
	}
	if b.timeline {
		return 1, b.exportJSON(res)
	}
	return 1, nil
}

// render prints the text tables of the mirrored CLI run.
func (b *analyzeBench) render(res *core.Result) error {
	b.text.Reset()
	if b.timeline {
		return report.WaitStates(&b.text, b.tl, res)
	}
	if err := report.Analysis(&b.text, res, 32); err != nil {
		return err
	}
	return report.CritPath(&b.text, res.CritPath)
}

func (b *analyzeBench) exportJSON(res *core.Result) error {
	b.export.Reset()
	return b.tl.WriteJSON(&b.export, timeline.ExportOptions{CritPath: res.CritPath})
}

func (b *analyzeBench) check(i int) error {
	res := b.res
	if res.Events != b.events {
		return fmt.Errorf("analyzed %d events of a %d-event trace", res.Events, b.events)
	}
	cp := res.CritPath
	if cp == nil || len(cp.Steps) == 0 {
		return fmt.Errorf("no critical path recorded")
	}
	if d := cp.SinkDelay + cp.SinkOffset - res.MakespanDelay; math.Abs(d) > 1e-6*math.Max(1, math.Abs(res.MakespanDelay)) {
		return fmt.Errorf("critical path sums to %g, makespan delay is %g", cp.SinkDelay+cp.SinkOffset, res.MakespanDelay)
	}
	if b.text.Len() == 0 {
		return fmt.Errorf("empty report")
	}
	if b.timeline && b.export.Len() == 0 {
		return fmt.Errorf("empty timeline export")
	}
	if i != 0 {
		return nil
	}
	// Op 0 also runs the slow checks: the compiled engine reproduces
	// the streaming result, and the timeline passes its invariants and
	// the trace-event contract.
	set, closeFn, err := trace.OpenDir(b.dir)
	if err != nil {
		return err
	}
	defer closeFn() //nolint:errcheck // read-only
	if err := checkCompiled(set, b.model(0), res); err != nil {
		return err
	}
	if b.timeline {
		return checkTimeline(b.tl, res, b.export.Bytes())
	}
	return nil
}

func (b *analyzeBench) tracedSetup(t *tracer) (probeInput, error) {
	in := probeInput{wl: b.wl, wopts: b.wopts, mcfg: b.mcfg, model: b.model(0), dir: b.dir + "-encoded"}
	err := t.root(-1, "setup", func(root int) (work, error) {
		var err error
		if in.mems, in.events, err = traceGen(t, root, b.wl, b.wopts, b.mcfg); err != nil {
			return work{}, err
		}
		in.bytes, err = encode(t, root, in.dir, in.mems)
		return work{}, err
	})
	return in, err
}

func (b *analyzeBench) tracedOp(t *tracer, i int) error {
	want := b.res
	var res *core.Result
	err := t.root(i, "op", func(root int) (work, error) {
		var mems []*trace.MemTrace
		err := t.run(root, "trace.decode", func(int) (work, error) {
			var err error
			mems, err = readDir(b.dir)
			return work{n: float64(b.events), bytes: b.traceBytes}, err
		})
		if err != nil {
			return work{}, err
		}
		err = t.run(root, "core.analyze", func(int) (work, error) {
			set, err := trace.SetFromMem(mems)
			if err != nil {
				return work{}, err
			}
			res, err = core.Analyze(set, b.model(i), b.newOptions(t.reg))
			return work{n: float64(b.events)}, err
		})
		if err != nil {
			return work{}, err
		}
		b.res = res
		err = t.run(root, "report", func(int) (work, error) { return work{n: 1}, b.render(res) })
		if err != nil || !b.timeline {
			return work{}, err
		}
		return work{}, t.run(root, "timeline.export", func(int) (work, error) {
			err := b.exportJSON(res)
			return work{n: float64(b.events), bytes: int64(b.export.Len())}, err
		})
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res, want) {
		return fmt.Errorf("traced op differs from the untraced op (makespan delay %g vs %g)", res.MakespanDelay, want.MakespanDelay)
	}
	if b.timeline {
		// Check is not part of the user's op; its own root span keeps
		// it out of the op's layer shares.
		err := t.root(i, "check", func(root int) (work, error) {
			return work{}, t.run(root, "timeline.check", func(int) (work, error) {
				return work{n: 1}, checkTimeline(b.tl, res, nil)
			})
		})
		if err != nil {
			return err
		}
	}
	return b.check(i)
}

// sweepBench is one sweep.Run, as `mpg-sweep` runs it: every grid
// point is traced afresh and analyzed once, or — with Trials > 1 —
// compiled once and replayed Trials times across the worker pool.
type sweepBench struct {
	p      params
	cfg    sweep.Config
	seed   uint64
	slope  float64 // the §6.1 slope a single-trial latency sweep must fit
	dir    string
	events int64         // trace events over the whole grid
	res    *sweep.Result // the latest op's output
}

func newSweepBench(cfg sweep.Config, seed uint64, dir string) *sweepBench {
	b := &sweepBench{cfg: cfg, seed: seed, dir: dir}
	m, _ := b.point(cfg, cfg.To)
	b.p = params{
		Workload: cfg.Workload, Ranks: cfg.Machine.NRanks, Iters: cfg.WorkloadOptions.Iterations,
		CollEvery: cfg.WorkloadOptions.CollEvery,
		Sweep:     cfg.Param.String(), From: cfg.From, To: cfg.To, Step: cfg.Step,
		Trials:  cfg.Trials,
		Model:   fmt.Sprintf("noise=%v latency=%v", m.OSNoise, m.MsgLatency),
		Workers: cfg.Workers,
	}
	if cfg.Trials <= 1 {
		// Every traversal crosses every rank's message edge once, plus
		// the final hop's acknowledgment (EXPERIMENTS.md §6.1).
		b.slope = float64(cfg.WorkloadOptions.Iterations*cfg.Machine.NRanks + 1)
	}
	return b
}

func (b *sweepBench) params() params     { return b.p }
func (b *sweepBench) eventsPerOp() int64 { return b.events }

// config is op i's sweep; ops differ only in their model seed.
func (b *sweepBench) config(i int) sweep.Config {
	cfg := b.cfg
	cfg.ModelSeed = modelSeed(b.seed, i)
	return cfg
}

// point mirrors sweep.Run's derivation of one grid point's model and
// tracing machine, for the two axes this benchmark sweeps. The traced
// run's equality checks against sweep.Run catch any drift.
func (b *sweepBench) point(cfg sweep.Config, v float64) (*core.Model, machine.Config) {
	model := &core.Model{Seed: cfg.ModelSeed, Propagation: cfg.Propagation}
	mcfg := cfg.Machine
	switch cfg.Param {
	case sweep.ParamRanks:
		mcfg.NRanks = int(v)
		model.OSNoise = dist.Exponential{MeanValue: cfg.NoiseMean}
	case sweep.ParamLatency:
		model.MsgLatency = dist.Constant{C: v}
	default:
		panic("mpg-perf: unsupported sweep axis " + cfg.Param.String())
	}
	return model, mcfg
}

func (b *sweepBench) setup() error {
	b.events = 0
	for _, v := range b.cfg.Values() {
		_, mcfg := b.point(b.cfg, v)
		mems, n, err := traceGen(nil, -1, b.cfg.Workload, b.cfg.WorkloadOptions, mcfg)
		if err != nil {
			return err
		}
		b.events += n
		if b.cfg.Trials > 1 {
			set, err := trace.SetFromMem(mems)
			if err != nil {
				return err
			}
			if _, err := core.Compile(set, b.cfg.Analyze); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *sweepBench) op(i int) (int, error) {
	res, err := sweep.Run(b.config(i))
	if err != nil {
		return 0, err
	}
	b.res = res
	return len(res.Points) * max(1, b.cfg.Trials), nil
}

func (b *sweepBench) check(int) error {
	if n := len(b.cfg.Values()); len(b.res.Points) != n {
		return fmt.Errorf("%d points, want %d", len(b.res.Points), n)
	}
	if b.cfg.Trials > 1 {
		for _, p := range b.res.Points {
			if p.Trials == nil || p.Trials.Trials != b.cfg.Trials {
				return fmt.Errorf("point %g does not report %d trials", p.Value, b.cfg.Trials)
			}
			if !(p.Trials.MeanMax > 0) || math.IsInf(p.Trials.MeanMax, 0) {
				return fmt.Errorf("point %g: mean max delay %g", p.Value, p.Trials.MeanMax)
			}
		}
		return nil
	}
	f := b.res.Fit
	if !b.res.HasFit || math.Abs(f.Slope-b.slope) > 1 || f.R2 < 0.999999 {
		return fmt.Errorf("fit slope %.4f R² %.8f, want %g ± 1 and R² ≥ 0.999999", f.Slope, f.R2, b.slope)
	}
	return nil
}

// tracedSetup traces every point (and compiles it, for Monte Carlo) and
// encodes the last, largest point as the probes' representative trace.
func (b *sweepBench) tracedSetup(t *tracer) (probeInput, error) {
	var in probeInput
	err := t.root(-1, "setup", func(root int) (work, error) {
		cfg := b.config(0)
		for _, v := range cfg.Values() {
			model, mcfg := b.point(cfg, v)
			mems, n, err := traceGen(t, root, cfg.Workload, cfg.WorkloadOptions, mcfg)
			if err != nil {
				return work{}, err
			}
			if cfg.Trials > 1 {
				if _, err := compile(t, root, mems, n, nil); err != nil {
					return work{}, err
				}
			}
			in = probeInput{wl: cfg.Workload, wopts: cfg.WorkloadOptions, mcfg: mcfg, model: model, mems: mems, events: n}
		}
		in.dir = filepath.Join(b.dir, "encoded")
		var err error
		in.bytes, err = encode(t, root, in.dir, in.mems)
		return work{}, err
	})
	return in, err
}

func (b *sweepBench) tracedOp(t *tracer, i int) error {
	cfg := b.config(i)
	vals := cfg.Values()
	popts := parallel.Options{Workers: cfg.Workers}
	var results []*core.Result // one per point, trial 0's for Monte Carlo
	var stats []sweep.TrialStats
	err := t.root(i, "op", func(root int) (work, error) {
		if cfg.Trials <= 1 {
			results = make([]*core.Result, len(vals))
			return work{}, t.run(root, "parallel", func(pid int) (work, error) {
				return work{n: float64(len(vals))}, parallel.Run(len(vals), popts, func(k int) error {
					model, mcfg := b.point(cfg, vals[k])
					mems, n, err := traceGen(t, pid, cfg.Workload, cfg.WorkloadOptions, mcfg)
					if err != nil {
						return err
					}
					return t.run(pid, "core.analyze", func(int) (work, error) {
						set, err := trace.SetFromMem(mems)
						if err != nil {
							return work{}, err
						}
						results[k], err = core.Analyze(set, model, core.Options{Metrics: t.reg})
						return work{n: float64(n)}, err
					})
				})
			})
		}
		progs := make([]*core.Compiled, len(vals))
		err := t.run(root, "parallel", func(pid int) (work, error) {
			return work{n: float64(len(vals))}, parallel.Run(len(vals), popts, func(k int) error {
				_, mcfg := b.point(cfg, vals[k])
				mems, n, err := traceGen(t, pid, cfg.Workload, cfg.WorkloadOptions, mcfg)
				if err != nil {
					return err
				}
				progs[k], err = compile(t, pid, mems, n, t.reg)
				return err
			})
		})
		if err != nil {
			return work{}, err
		}
		// Trial seeds come from the flattened (point × trial) task
		// index, exactly as sweep.Run derives them.
		trials := make([]*core.Result, len(vals)*cfg.Trials)
		err = t.run(root, "parallel", func(pid int) (work, error) {
			return work{n: float64(len(trials))}, parallel.Run(len(trials), popts, func(k int) error {
				model, _ := b.point(cfg, vals[k/cfg.Trials])
				model.Seed = parallel.TaskSeed(cfg.ModelSeed, k)
				return t.run(pid, "core.replay", func(int) (work, error) {
					var err error
					trials[k], err = core.ReplayCompiled(progs[k/cfg.Trials], model, core.Options{Metrics: t.reg})
					return work{n: 1}, err
				})
			})
		})
		if err != nil {
			return work{}, err
		}
		for p := range vals {
			results = append(results, trials[p*cfg.Trials])
			stats = append(stats, trialStats(trials[p*cfg.Trials:(p+1)*cfg.Trials]))
		}
		return work{}, nil
	})
	if err != nil {
		return err
	}
	for p, pt := range b.res.Points {
		if !reflect.DeepEqual(results[p], pt.Result) {
			return fmt.Errorf("point %g: traced result differs from sweep.Run", pt.Value)
		}
		if stats != nil && *pt.Trials != stats[p] {
			return fmt.Errorf("point %g: traced trial stats %+v differ from sweep.Run's %+v", pt.Value, stats[p], *pt.Trials)
		}
	}
	return b.check(i)
}

// trialStats aggregates one point's Monte Carlo trials the way
// sweep.Run does.
func trialStats(trials []*core.Result) sweep.TrialStats {
	maxima := make([]float64, len(trials))
	var w dist.Welford
	for k, r := range trials {
		maxima[k] = r.MaxFinalDelay
		w.Add(maxima[k])
	}
	return sweep.TrialStats{
		Trials:    len(trials),
		MeanMax:   w.Mean(),
		P95Max:    dist.Quantile(maxima, 0.95),
		MinMax:    w.Min(),
		MaxMax:    w.Max(),
		StdDevMax: w.StdDev(),
	}
}

// traceGen runs the workload on the simulated MPI runtime with
// in-memory tracing, under an mpi.trace_gen span when t is non-nil.
func traceGen(t *tracer, parent int, wl string, wopts workloads.Options, mcfg machine.Config) ([]*trace.MemTrace, int64, error) {
	var mems []*trace.MemTrace
	var events int64
	err := t.run(parent, "mpi.trace_gen", func(int) (work, error) {
		prog, err := workloads.BuildByName(wl, wopts)
		if err != nil {
			return work{}, err
		}
		run, err := mpi.Run(mpi.Config{Machine: mcfg}, prog)
		if err != nil {
			return work{}, err
		}
		mems, events = run.Traces, run.Stats.Events
		return work{n: float64(events)}, nil
	})
	return mems, events, err
}

// encode writes in-memory traces to dir through the buffered trace
// writer — the second step of what mpi.Run{TraceDir} does in one.
func encode(t *tracer, parent int, dir string, mems []*trace.MemTrace) (int64, error) {
	var size int64
	err := t.run(parent, "trace.encode", func(int) (work, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return work{}, err
		}
		var events int64
		for _, m := range mems {
			w, closeFn, err := trace.CreateFileWriter(dir, m.Hdr, 4096)
			if err != nil {
				return work{}, err
			}
			for _, rec := range m.Records {
				if err := w.Record(rec); err != nil {
					closeFn() //nolint:errcheck // reporting the record error
					return work{}, err
				}
			}
			if err := closeFn(); err != nil {
				return work{}, err
			}
			events += int64(len(m.Records))
		}
		var err error
		size, err = dirBytes(dir)
		return work{n: float64(events), bytes: size}, err
	})
	return size, err
}

// compile builds the compiled replay program under a core.compile span.
func compile(t *tracer, parent int, mems []*trace.MemTrace, events int64, reg *obsv.Registry) (*core.Compiled, error) {
	var c *core.Compiled
	err := t.run(parent, "core.compile", func(int) (work, error) {
		set, err := trace.SetFromMem(mems)
		if err != nil {
			return work{}, err
		}
		c, err = core.Compile(set, core.Options{Metrics: reg})
		return work{n: float64(events)}, err
	})
	return c, err
}

// readDir decodes a trace directory completely into memory.
func readDir(dir string) ([]*trace.MemTrace, error) {
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer closeFn() //nolint:errcheck // read-only
	mems := make([]*trace.MemTrace, set.NRanks())
	for r := range mems {
		if mems[r], err = trace.ReadAll(set.Rank(r)); err != nil {
			return nil, err
		}
	}
	return mems, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// sameFiles reports whether two directories hold byte-identical files.
func sameFiles(a, b string) error {
	entries, err := os.ReadDir(a)
	if err != nil {
		return err
	}
	other, err := os.ReadDir(b)
	if err != nil {
		return err
	}
	if len(entries) != len(other) {
		return fmt.Errorf("%s holds %d files, %s holds %d", a, len(entries), b, len(other))
	}
	for _, e := range entries {
		x, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("%s differs between %s and %s", e.Name(), a, b)
		}
	}
	return nil
}

// checkCompiled verifies that compiled replay reproduces a streaming
// result exactly, critical path included.
func checkCompiled(set *trace.Set, model *core.Model, want *core.Result) error {
	c, err := core.Compile(set, core.Options{})
	if err != nil {
		return err
	}
	got, err := core.ReplayCompiled(c, model, core.Options{RecordCritPath: true})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("compiled replay differs from the streaming analysis (makespan delay %g vs %g)",
			got.MakespanDelay, want.MakespanDelay)
	}
	return nil
}

// checkTimeline runs the timeline's invariant check and, when export is
// non-nil, validates it against the trace-event contract.
func checkTimeline(tl *timeline.Timeline, res *core.Result, export []byte) error {
	msgs := tl.Check(res)
	if export != nil {
		msgs = append(msgs, timeline.Validate(export)...)
	}
	if len(msgs) > 0 {
		return fmt.Errorf("timeline: %d violations, first: %s", len(msgs), msgs[0])
	}
	return nil
}
