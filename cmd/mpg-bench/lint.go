package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"mpgraph/internal/analysis"
)

// lintConfig parameterizes the linter self-benchmark.
type lintConfig struct {
	trials int
	out    string
}

// lintStage is one timed phase of an analysis run, aggregated over
// trials: "load" (type-checking the module through the lenient
// loader), "callgraph" (building the shared whole-module call graph,
// once per run regardless of how many interprocedural analyzers
// consume it), then one entry per analyzer.
type lintStage struct {
	Name   string  `json:"name"`
	BestMs float64 `json:"best_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// lintReport is the BENCH_lint.json schema: the analysis suite
// benchmarked against the repository itself. The edge counts are the
// precision trend line — EdgesUnknown is the number of call sites the
// resolver had to taint as dynamic, so a rising count means the
// interprocedural analyzers are proving less than they used to.
type lintReport struct {
	GoVersion string `json:"go_version"`
	Packages  int    `json:"packages"`
	Trials    int    `json:"trials"`

	// Call-graph shape.
	Functions     int `json:"functions"`
	EdgesStatic   int `json:"edges_static"`
	EdgesExternal int `json:"edges_external"`
	EdgesUnknown  int `json:"edges_unknown"`

	// Findings profile of the benchmarked run (the suite gates
	// in-band: outstanding must be zero for the report to be written).
	Outstanding int `json:"outstanding"`
	Info        int `json:"info"`
	Suppressed  int `json:"suppressed"`

	// Stages in execution order; TotalBestMs sums the per-stage bests.
	Stages      []lintStage `json:"stages"`
	TotalBestMs float64     `json:"total_best_ms"`
	TotalMeanMs float64     `json:"total_mean_ms"`
}

// runLint benchmarks the full analyzer suite over the enclosing
// module, trials times, and writes BENCH_lint.json. Like the replay
// and sampler benchmarks it carries its gate in-band: a run with
// outstanding findings is a failure, not a data point.
func runLint(cfg lintConfig) error {
	type agg struct {
		best, sum float64
		n         int
	}
	stages := map[string]*agg{}
	var order []string
	var last *analysis.Result
	for t := 0; t < cfg.trials; t++ {
		res, err := analysis.Run(".", analysis.Config{})
		if err != nil {
			return err
		}
		if out := res.Outstanding(); len(out) != 0 {
			return fmt.Errorf("lint benchmark gate: %d outstanding findings; the suite must be clean to benchmark it", len(out))
		}
		for _, st := range res.Timings {
			a, ok := stages[st.Name]
			if !ok {
				a = &agg{best: st.Ms}
				stages[st.Name] = a
				order = append(order, st.Name)
			}
			if st.Ms < a.best {
				a.best = st.Ms
			}
			a.sum += st.Ms
			a.n++
		}
		last = res
	}
	rep := lintReport{
		GoVersion: runtime.Version(),
		Packages:  last.Packages,
		Trials:    cfg.trials,
	}
	if g := last.Graph; g != nil {
		rep.Functions = len(g.Funcs)
		rep.EdgesStatic = g.EdgeCount(analysis.EdgeStatic)
		rep.EdgesExternal = g.EdgeCount(analysis.EdgeExternal)
		rep.EdgesUnknown = g.EdgeCount(analysis.EdgeUnknown)
	}
	for _, d := range last.Diagnostics {
		switch {
		case d.Suppressed:
			rep.Suppressed++
		case d.Severity == analysis.SeverityInfo:
			rep.Info++
		default:
			rep.Outstanding++
		}
	}
	// order holds the stages as the first trial executed them, so the
	// report reads like the run: load, callgraph, then each analyzer.
	for _, name := range order {
		a := stages[name]
		st := lintStage{Name: name, BestMs: a.best, MeanMs: a.sum / float64(a.n)}
		rep.Stages = append(rep.Stages, st)
		rep.TotalBestMs += st.BestMs
		rep.TotalMeanMs += st.MeanMs
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("lint self-benchmark: %d packages, %d functions, %d/%d/%d static/external/unknown edges\n",
		rep.Packages, rep.Functions, rep.EdgesStatic, rep.EdgesExternal, rep.EdgesUnknown)
	for _, st := range rep.Stages {
		fmt.Printf("  %-16s best %8.2f ms  mean %8.2f ms\n", st.Name, st.BestMs, st.MeanMs)
	}
	fmt.Printf("  %-16s best %8.2f ms  mean %8.2f ms\n", "total", rep.TotalBestMs, rep.TotalMeanMs)
	fmt.Printf("report written to %s\n", cfg.out)
	return nil
}
