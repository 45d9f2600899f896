// Command mpg-analyze builds the message-passing graph from a trace
// directory, injects the configured perturbations, and reports the
// per-rank delay outcome — the paper's core analysis:
//
//	mpg-analyze -traces traces/ -os-noise exponential:200 \
//	    -latency spike:0.01,constant:5000
//
// A platform signature from mpg-bench can supply the distributions:
//
//	mpg-analyze -traces traces/ -signature noisy-platform.json
//
// With -timeline the run additionally reconstructs per-rank interval
// tracks with wait-state decomposition and writes them as Perfetto
// trace-event JSON (see doc/TIMELINE.md):
//
//	mpg-analyze -traces traces/ -os-noise exponential:200 \
//	    -timeline run.trace.json -timeline-window 5000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/cli"
	"mpgraph/internal/core"
	"mpgraph/internal/microbench"
	"mpgraph/internal/report"
	"mpgraph/internal/scenario"
	"mpgraph/internal/timeline"
	"mpgraph/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpg-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpg-analyze", flag.ContinueOnError)
	var mf cli.ModelFlags
	mf.Register(fs)
	traces := fs.String("traces", "", "trace directory from mpg-trace (required)")
	sigPath := fs.String("signature", "", "platform signature JSON; its empirical distributions override -os-noise/-latency")
	scenarioPath := fs.String("scenario", "", "scenario JSON bundling all model parameters (overrides individual model flags)")
	maxWindow := fs.Int("max-window", 0, "abort if the streaming window exceeds this many pending ops (0 = unbounded)")
	maxRanks := fs.Int("max-ranks", 32, "per-rank rows to print (0 = all)")
	asciiCols := fs.Int("ascii-timeline", 0, "print a per-rank activity timeline this many columns wide (0 = off)")
	tlPath := fs.String("timeline", "", "write per-rank interval tracks with wait-state decomposition as Perfetto trace-event JSON to this path")
	tlWindow := fs.Float64("timeline-window", 0, "window width in cycles for the timeline's counter tracks (0 = auto)")
	tlRanks := fs.String("timeline-ranks", "", "ranks to include in the timeline export, e.g. \"0-3,7\" (empty or \"all\" = every rank)")
	tlValidate := fs.String("timeline-validate", "", "validate an existing trace-event JSON file against the exporter's contract and exit")
	engine := fs.String("engine", "streaming", "analysis engine: streaming or compiled (byte-identical)")
	trajectory := fs.String("trajectory", "", "write a per-event delay CSV (rank,event,kind,orig_end,delay,region) to this path")
	history := fs.String("history", "", "append this run's summary to a JSON-lines history file (§7)")
	label := fs.String("label", "", "label for the history entry")
	critpath := fs.Bool("critpath", false, "extract the critical path behind the makespan delay and print its blame tables")
	critpathCSV := fs.String("critpath-csv", "", "write the critical path as CSV to this path (implies extraction)")
	critpathDOT := fs.String("critpath-dot", "", "write a DOT rendering of the graph with the critical path highlighted (implies extraction)")
	var of cli.ObsvFlags
	of.Register(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tlValidate != "" {
		// Standalone validation mode: check a previously exported file
		// (e.g. a CI artifact) and exit without analyzing anything.
		data, err := os.ReadFile(*tlValidate)
		if err != nil {
			return err
		}
		if msgs := timeline.Validate(data); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, m)
			}
			return fmt.Errorf("%s: %d trace-event contract violations", *tlValidate, len(msgs))
		}
		fmt.Printf("%s: valid trace-event JSON\n", *tlValidate)
		return nil
	}
	if *traces == "" {
		return fmt.Errorf("-traces is required")
	}
	switch *engine {
	case "streaming", "compiled":
	default:
		return fmt.Errorf("unknown -engine %q (want streaming or compiled)", *engine)
	}
	if *critpathDOT != "" && *engine != "streaming" {
		return fmt.Errorf("-critpath-dot needs the graph sink; use -engine streaming")
	}
	model, err := mf.Build()
	if err != nil {
		return err
	}
	if *scenarioPath != "" {
		m, f, err := scenario.Load(*scenarioPath)
		if err != nil {
			return err
		}
		model = m
		if f.Name != "" {
			fmt.Printf("scenario %q\n", f.Name)
		}
	}
	if *sigPath != "" {
		sig, err := microbench.Load(*sigPath)
		if err != nil {
			return err
		}
		model.OSNoise = sig.NoiseEmpirical()
		model.NoiseQuantum = sig.Quantum
		model.MsgLatency = sig.LatencyJitterEmpirical()
		fmt.Printf("signature %q: noise %s; latency %s\n",
			sig.Platform, sig.NoiseSummary(), sig.LatencySummary())
	}

	if *asciiCols > 0 {
		// The ASCII chart drains its own copy of the traces.
		set, closeFn, err := trace.OpenDir(*traces)
		if err != nil {
			return err
		}
		if err := report.Timeline(os.Stdout, set, *asciiCols); err != nil {
			closeFn() //nolint:errcheck
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
	}

	set, closeFn, err := trace.OpenDir(*traces)
	if err != nil {
		return err
	}
	defer closeFn() //nolint:errcheck

	opts := core.Options{MaxWindow: *maxWindow, Metrics: of.Registry()}
	wantCrit := *critpath || *critpathCSV != "" || *critpathDOT != ""
	opts.RecordCritPath = wantCrit
	var graph *core.Graph
	if *critpathDOT != "" {
		graph = &core.Graph{}
		opts.Graph = graph
	}
	var tl *timeline.Timeline
	if *tlPath != "" {
		// The export draws critical-path flow arrows, so extraction is
		// forced whenever a timeline is requested.
		tl = timeline.New(0)
		opts.RecordCritPath = true
		opts.Interval = tl.Record
	}
	var trajFile *os.File
	if *trajectory != "" {
		trajFile, err = os.Create(*trajectory)
		if err != nil {
			return err
		}
		defer trajFile.Close() //nolint:errcheck
		bw := bufio.NewWriter(trajFile)
		defer bw.Flush() //nolint:errcheck
		fmt.Fprintln(bw, "rank,event,kind,orig_end,delay,region")
		opts.Trajectory = func(p core.TrajectoryPoint) {
			fmt.Fprintf(bw, "%d,%d,%s,%d,%.3f,%d\n",
				p.Rank, p.Event, trace.Kind(p.Kind), p.OrigEnd, p.Delay, p.Region)
		}
	}

	res, err := analyze(set, model, opts, *engine)
	if err != nil {
		return err
	}
	if *history != "" {
		modelDesc := map[string]string{}
		if mf.OSNoise != "" {
			modelDesc["os-noise"] = mf.OSNoise
		}
		if mf.Latency != "" {
			modelDesc["latency"] = mf.Latency
		}
		if mf.PerByte != "" {
			modelDesc["per-byte"] = mf.PerByte
		}
		if *sigPath != "" {
			modelDesc["signature"] = *sigPath
		}
		entry := report.NewHistoryEntry(*label, *traces, modelDesc, res)
		entry.AttachTiming(of.DurationMS(), of.Registry().Snapshot())
		if err := report.AppendHistory(*history, entry); err != nil {
			return err
		}
	}
	if err := report.Analysis(os.Stdout, res, *maxRanks); err != nil {
		return err
	}
	if tl != nil {
		if err := report.WaitStates(os.Stdout, tl, res); err != nil {
			return err
		}
		sel, err := timeline.ParseRanks(*tlRanks, res.NRanks)
		if err != nil {
			return err
		}
		eopts := timeline.ExportOptions{
			Window:   *tlWindow,
			Ranks:    sel,
			CritPath: res.CritPath,
		}
		if of.SelfTrace != "" {
			// Embedding wall-clock spans makes the file nondeterministic,
			// so the engine process group only appears on request.
			eopts.Spans = of.Registry().Spans().Snapshot()
		}
		f, err := os.Create(*tlPath)
		if err != nil {
			return err
		}
		if err := tl.WriteJSON(f, eopts); err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if wantCrit {
		if *critpath {
			if err := report.CritPath(os.Stdout, res.CritPath); err != nil {
				return err
			}
		}
		if *critpathCSV != "" {
			f, err := os.Create(*critpathCSV)
			if err != nil {
				return err
			}
			if err := report.CritPathCSV(f, res.CritPath); err != nil {
				f.Close() //nolint:errcheck
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if *critpathDOT != "" {
			dot := graph.DOTWithPath("critical path", res.CritPath.Steps)
			if err := os.WriteFile(*critpathDOT, []byte(dot), 0o644); err != nil {
				return err
			}
		}
	}
	return of.Flush()
}

// analyze runs the model through the selected engine. Both engines
// are pinned byte-identical by the core equivalence suite, so the
// choice changes performance characteristics, never results: the
// compiled engine pre-flattens the schedule into an op tape first.
func analyze(set *trace.Set, model *core.Model, opts core.Options, engine string) (*core.Result, error) {
	if engine == "streaming" {
		return core.Analyze(set, model, opts)
	}
	prog, err := core.Compile(set, core.Options{MaxWindow: opts.MaxWindow, Metrics: opts.Metrics})
	if err != nil {
		return nil, err
	}
	return core.ReplayCompiled(prog, model, opts)
}
