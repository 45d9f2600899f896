package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mpgraph/internal/report"
)

// errRegressed makes -compare exit 1 after printing its table.
var errRegressed = errors.New("at least one metric regressed")

// runCompare compares the end-to-end metrics of two sets of results
// files, one row per workload and metric, and fails if any row
// regressed. args are BASE and NEW, each a comma-separated list of
// files or globs.
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two arguments, BASE and NEW, each a comma-separated list of results files or globs")
	}
	base, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	next, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	if err := comparable(append(slices.Clone(base), next...)); err != nil {
		return err
	}
	tbl := report.NewTable(fmt.Sprintf("mpg-perf: %d base results files against %d new ones", len(base), len(next)),
		"workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	regressed := false
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			b, n := values(base, wl, d.Name), values(next, wl, d.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			change, v := verdict(d, b, n)
			regressed = regressed || v == "regressed"
			tbl.AddRow(wl, d.Name, quartileCell(b, d.Unit), quartileCell(n, d.Unit), fmt.Sprintf("%+.1f%%", 100*change), v)
		}
	}
	if tbl.NumRows() == 0 {
		return fmt.Errorf("the two sides share no workload")
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if regressed {
		return errRegressed
	}
	return nil
}

// loadRuns reads the end-to-end results files a spec names.
func loadRuns(spec string) ([]runFile, error) {
	var runs []runFile
	for _, pat := range strings.Split(spec, ",") {
		paths, err := filepath.Glob(pat)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%s: no results files", pat)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var rf runFile
			if err := json.Unmarshal(data, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if rf.Provenance.Traced {
				return nil, fmt.Errorf("%s is a traced run; compare runs made with -trace 0", p)
			}
			runs = append(runs, rf)
		}
	}
	return runs, nil
}

// comparable refuses runs that drew their samples from different
// random streams or ran a workload with different parameters.
func comparable(runs []runFile) error {
	seen := map[string]params{}
	for _, rf := range runs {
		if v := runs[0].Provenance.SamplerVersion; rf.Provenance.SamplerVersion != v {
			return fmt.Errorf("refusing to compare: sampler versions %q and %q differ", v, rf.Provenance.SamplerVersion)
		}
		for _, wr := range rf.Workloads {
			if p, ok := seen[wr.Name]; ok && p != wr.Params {
				return fmt.Errorf("refusing to compare: %s ran with parameters %+v and %+v", wr.Name, p, wr.Params)
			}
			seen[wr.Name] = wr.Params
		}
	}
	return nil
}

// values collects one metric of one workload across runs.
func values(runs []runFile, workload, metric string) []float64 {
	var out []float64
	for _, rf := range runs {
		for _, wr := range rf.Workloads {
			if m, ok := wr.Metrics[metric]; ok && wr.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict classifies how the new runs moved against the base runs.
// change is the relative move of the median. A move in the worse
// direction beyond the metric's bound is a regression, one beyond it in
// the better direction an improvement. When either side's quartile
// spread is wider than the bound, the row is unresolved, unless every
// run of one side beats every run of the other.
func verdict(d metricDef, base, next []float64) (change float64, v string) {
	bq, nq := quartiles(base), quartiles(next)
	change = ratio(nq[1]-bq[1], bq[1])
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	spread := max(ratio(bq[2]-bq[0], bq[1]), ratio(nq[2]-nq[0], nq[1]))
	separated := slices.Min(next) > slices.Max(base) || slices.Max(next) < slices.Min(base)
	switch {
	case spread > d.Bound && !separated:
		return change, "unresolved"
	case worse > d.Bound:
		return change, "regressed"
	case worse < -d.Bound:
		return change, "improved"
	}
	return change, "unchanged"
}

// quartiles returns the first quartile, the median and the third
// quartile as Python's statistics.quantiles(xs, n=4) computes them
// (its default "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func quartileCell(xs []float64, unit string) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", q[1], q[0], q[2], unit)
}
