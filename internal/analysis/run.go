package analysis

import (
	"fmt"
	"strings"
	"time"
)

// All returns the full analyzer suite in name order: two file-local
// analyzers (floateq, rngpurity) and three interprocedural ones
// layered on the call graph (concdiscipline, detreach, hotpathprop).
func All() []*Analyzer {
	return []*Analyzer{
		ConcDisciplineAnalyzer,
		DetReachAnalyzer,
		FloateqAnalyzer,
		HotPathPropAnalyzer,
		RNGPurityAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list against All.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Config controls one Run.
type Config struct {
	// Patterns are package patterns relative to the module root
	// ("./...", "./internal/core"). Default: "./...".
	Patterns []string
	// Analyzers defaults to All().
	Analyzers []*Analyzer
}

// StageTiming is one timed phase of a Run, for the linter
// self-benchmark (mpg-bench -lint).
type StageTiming struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// Result is the outcome of one Run: every diagnostic produced, with
// suppressed ones marked rather than dropped, so reports can show the
// full picture.
type Result struct {
	Diagnostics []Diagnostic
	// Packages is the number of packages analyzed.
	Packages int
	// Graph is the shared call graph, built at most once per run and
	// reused by every interprocedural analyzer (nil when no selected
	// analyzer needed it).
	Graph *CallGraph
	// Timings records the run's phases in execution order: "load"
	// (when Run loaded the packages), "callgraph" (when a graph was
	// built), then one entry per analyzer.
	Timings []StageTiming
}

// Outstanding returns the diagnostics that still gate: neither
// suppressed in source nor info-severity.
func (r *Result) Outstanding() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed && d.Severity != SeverityInfo {
			out = append(out, d)
		}
	}
	return out
}

// Run loads the packages under the module enclosing dir and applies
// the configured analyzers.
func Run(dir string, cfg Config) (*Result, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	loadMs := float64(time.Since(start)) / float64(time.Millisecond)
	res, err := RunPackages(pkgs, cfg)
	if err != nil {
		return nil, err
	}
	res.Timings = append([]StageTiming{{Name: "load", Ms: loadMs}}, res.Timings...)
	return res, nil
}

// RunPackages applies the configured analyzers to already-loaded
// packages (the seam fixture tests use). The call graph, when any
// selected analyzer declares RunModule, is built exactly once and
// shared across all of them.
func RunPackages(pkgs []*Package, cfg Config) (*Result, error) {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	var timings []StageTiming
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule != nil && graph == nil {
			start := time.Now()
			graph = BuildCallGraph(pkgs)
			timings = append(timings, StageTiming{Name: "callgraph", Ms: float64(time.Since(start)) / float64(time.Millisecond)})
		}
	}
	for _, a := range analyzers {
		start := time.Now()
		if a.RunModule != nil {
			a.RunModule(&ModulePass{
				Analyzer: a,
				Pkgs:     pkgs,
				Graph:    graph,
				report:   report,
			})
		} else {
			for _, pkg := range pkgs {
				if !a.appliesTo(pkg.ImportPath) {
					continue
				}
				a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
			}
		}
		timings = append(timings, StageTiming{Name: a.Name, Ms: float64(time.Since(start)) / float64(time.Millisecond)})
	}
	for _, pkg := range pkgs {
		diags = append(diags, directiveDiagnostics(pkg, analyzers)...)
	}
	applySuppressions(pkgs, diags)
	sortDiagnostics(diags)
	return &Result{Diagnostics: diags, Packages: len(pkgs), Graph: graph, Timings: timings}, nil
}

// directiveDiagnostics validates //mpg:lint-ignore directives
// themselves: a directive must name a known analyzer and carry a
// reason — an unexplained suppression is a finding in its own right.
func directiveDiagnostics(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectiveIgnore) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, DirectiveIgnore))
				names, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				if names == "" {
					out = append(out, Diagnostic{
						Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: "mpg:lint-ignore names no analyzer",
					})
					continue
				}
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					switch {
					case name == "":
						out = append(out, Diagnostic{
							Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: "mpg:lint-ignore has an empty analyzer name in its list",
						})
					case !known[name]:
						out = append(out, Diagnostic{
							Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("mpg:lint-ignore names unknown analyzer %q", name),
						})
					case strings.TrimSpace(reason) == "":
						out = append(out, Diagnostic{
							Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("mpg:lint-ignore %s carries no reason; justify the suppression", name),
						})
					}
				}
			}
		}
	}
	return out
}

// applySuppressions marks diagnostics covered by //mpg:lint-ignore
// directives in the analyzed files.
func applySuppressions(pkgs []*Package, diags []Diagnostic) {
	supp := map[string][]suppression{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			supp[name] = collectSuppressions(pkg.Fset, f)
		}
	}
	for i := range diags {
		d := &diags[i]
		if d.Analyzer == "directive" {
			continue // directives cannot suppress their own validation
		}
		for j := range supp[d.File] {
			s := &supp[d.File][j]
			if s.analyzer != d.Analyzer || s.reason == "" {
				continue
			}
			if d.Line >= s.firstLine && d.Line <= s.lastLine {
				d.Suppressed = true
				d.Reason = s.reason
				s.used = true
				break
			}
		}
	}
}
