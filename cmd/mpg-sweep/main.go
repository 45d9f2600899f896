// Command mpg-sweep traces a workload once per tracing machine (once
// for a latency, noise or per-byte sweep; once per point for a ranks
// sweep) and reports how the analyzed delay grows as a perturbation
// parameter increases — the paper's Section 6.1 experiment and its
// generalizations:
//
//	mpg-sweep -workload tokenring -ranks 128 -iters 10 \
//	    -sweep latency -from 0 -to 700 -step 100
//
// reproduces the paper's 128-processor study (constant per-message
// perturbation swept from 0 to 700 cycles) and prints the linear fit
// the paper describes ("runtime increased by approximately
// traversals × increment × p"). Points are independent replays, so
// -workers fans them out across a pool (identical output for any pool
// size); -trials N turns each point into a Monte Carlo study over N
// derived seeds. With -baseline the same sweep also runs through the
// Dimemas-style DES replayer for comparison.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpgraph/internal/baseline"
	"mpgraph/internal/cli"
	"mpgraph/internal/dist"
	"mpgraph/internal/obsv"
	"mpgraph/internal/report"
	"mpgraph/internal/sweep"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// usageError is a command-line parse error; the FlagSet has already
// printed it with the usage.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitCode maps run's outcome to the process exit status: 0 for a
// finished run or -h, 2 for a flag error, and 1, with the error on
// stderr, for a failed run.
func exitCode(err error, stderr io.Writer) int {
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	fmt.Fprintln(stderr, "mpg-sweep:", err)
	return 1
}

func run(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("mpg-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var mf cli.MachineFlags
	var wf cli.WorkloadFlags
	var of cli.ObsvFlags
	mf.Register(fs)
	wf.Register(fs)
	of.Register(fs)
	param := fs.String("sweep", "latency", "swept parameter: latency|noise|perbyte|ranks (ranks: value = world size, perturbation fixed by -os-noise-mean)")
	noiseMean := fs.Float64("os-noise-mean", 200, "per-edge noise mean used by -sweep ranks")
	from := fs.Float64("from", 0, "sweep start value (cycles, or cycles/byte for perbyte)")
	to := fs.Float64("to", 700, "sweep end value (inclusive)")
	step := fs.Float64("step", 100, "sweep increment")
	workers := fs.Int("workers", 0, "replay worker pool size (0 = GOMAXPROCS); output is identical for any value")
	trials := fs.Int("trials", 1, "Monte Carlo replays per point, each under a seed derived from (model seed, trial)")
	useBaseline := fs.Bool("baseline", false, "also run the Dimemas-style DES replayer per point")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	progress := fs.Bool("progress", false, "report live replay progress on stderr")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *step <= 0 || *to < *from {
		return fmt.Errorf("invalid sweep range [%g,%g] step %g", *from, *to, *step)
	}
	mcfg, err := mf.Build()
	if err != nil {
		return err
	}
	p, err := sweep.ParseParam(strings.ToLower(*param))
	if err != nil {
		return fmt.Errorf("unknown sweep parameter %q", *param)
	}
	cfg := sweep.Config{
		Workload:        wf.Name,
		WorkloadOptions: wf.Options(),
		Machine:         mcfg,
		Param:           p,
		From:            *from,
		To:              *to,
		Step:            *step,
		NoiseMean:       *noiseMean,
		ModelSeed:       1,
		Workers:         *workers,
		Trials:          *trials,
		Metrics:         of.Registry(),
	}
	var rep *obsv.Progress
	if *progress {
		total := len(cfg.Values())
		if *trials > 1 {
			total *= *trials
		}
		rep = obsv.NewProgress(stderr, "replays", total, 0)
		// The defer only covers error returns: the reporter must stop
		// before the results render, or its ticker repaints interleave
		// with the table on a shared terminal.
		defer rep.Done()
		cfg.Progress = func(done, total int) { rep.Add(1) }
	}
	res, err := sweep.Run(cfg)
	rep.Done()
	if err != nil {
		return err
	}

	headers := []string{"value", "max-delay", "mean-delay", "makespan-delay"}
	if *trials > 1 {
		headers = append(headers, "trials-mean-max", "trials-p95-max", "trials-stddev")
	}
	if *useBaseline {
		headers = append(headers, "des-makespan-growth")
	}
	tbl := report.NewTable(
		fmt.Sprintf("%s sweep of %q on %d ranks", p, wf.Name, mcfg.NRanks),
		headers...)

	var growth []int64
	if *useBaseline {
		if growth, err = baselineGrowth(cfg); err != nil {
			return err
		}
	}
	for i, pt := range res.Points {
		row := []interface{}{pt.Value, pt.Result.MaxFinalDelay,
			pt.Result.MeanFinalDelay, pt.Result.MakespanDelay}
		if *trials > 1 {
			row = append(row, pt.Trials.MeanMax, pt.Trials.P95Max, pt.Trials.StdDevMax)
		}
		if *useBaseline {
			row = append(row, growth[i])
		}
		tbl.AddRow(row...)
	}

	// In CSV mode the data stream must stay machine-parseable, so the
	// fit and expectation diagnostics go to stderr instead of
	// interleaving with the rows.
	diag := w
	if *csv {
		diag = stderr
		if err := tbl.CSV(w); err != nil {
			return err
		}
	} else if err := tbl.Render(w); err != nil {
		return err
	}

	if res.HasFit {
		fmt.Fprintf(diag, "linear fit: max-delay = %.2f*value + %.1f (R²=%.5f)\n",
			res.Fit.Slope, res.Fit.Intercept, res.Fit.R2)
		if wf.Name == "tokenring" && p == sweep.ParamLatency {
			tr, _ := workloads.Get("tokenring")
			iters := wf.Options().Iterations
			if iters == 0 {
				iters = tr.Defaults.Iterations
			}
			fmt.Fprintf(diag, "paper §6.1 expectation: slope ≈ traversals × p = %d × %d = %d\n",
				iters, mcfg.NRanks, iters*mcfg.NRanks)
		}
	}
	return of.Flush()
}

// baselineGrowth replays every sweep point through the DES baseline and
// reports makespan growth relative to the first point. sweep.EachPoint
// fans the points out like the sweep itself, over one trace per
// distinct tracing machine; growth is computed after ordered
// collection so the reference point never depends on scheduling.
func baselineGrowth(cfg sweep.Config) ([]int64, error) {
	cfg.Metrics = nil // the metrics report covers the sweep alone
	spans, err := sweep.EachPoint(cfg, func(i int, v float64, set *trace.Set) (int64, error) {
		params := baseline.Params{Latency: 1000 + int64(v), BytesPerCycle: cfg.Machine.BytesPerCycle}
		if cfg.Param != sweep.ParamLatency {
			params.Latency = 1000
			params.OSNoise = dist.Constant{C: v}
		}
		rep, err := baseline.Replay(set, params)
		if err != nil {
			return 0, err
		}
		return rep.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s - spans[0]
	}
	return out, nil
}
