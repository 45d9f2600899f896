package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
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

// Config controls one Run.
type Config struct {
	// Patterns pick the packages whose diagnostics Run reports, as
	// paths relative to the module root ("./...", "./internal/core",
	// "internal/core/..."). Default: "./...". They never change what
	// is analyzed: Run always analyzes the whole module.
	Patterns []string
	// Analyzers defaults to All().
	Analyzers []*Analyzer
}

// Result is the outcome of one Run: every diagnostic produced, with
// suppressed ones marked rather than dropped, so reports can show the
// full picture.
type Result struct {
	Diagnostics []Diagnostic
	// Packages is the number of packages reported on.
	Packages int
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

// Run loads every package of the module enclosing dir, applies the
// configured analyzers to all of them, and keeps the diagnostics in
// the files of the packages cfg.Patterns pick. So the call graph, the
// suppressions and the stale-directive check always see the whole
// module, and a run over a subset reports exactly the whole-module
// findings in that subset.
func Run(dir string, cfg Config) (*Result, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load()
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, cfg).pick(loader.Root, pkgs, cfg.Patterns)
}

// pick returns the part of r in the files of the packages the
// patterns name. A pattern is a directory relative to the module
// root, naming that one package, or a directory followed by "..."
// ("./...", "internal/core/..."), naming every package at or below
// it. A pattern that resolves outside the root or names no package is
// an error. No patterns pick every package.
func (r *Result) pick(root string, pkgs []*Package, patterns []string) (*Result, error) {
	if len(patterns) == 0 {
		return r, nil
	}
	picked := map[*Package]bool{}
	for _, pat := range patterns {
		dir, recursive := strings.CutSuffix(pat, "...")
		rel, err := filepath.Rel(root, filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == ".." || strings.HasPrefix(rel, "../") {
			return nil, fmt.Errorf("analysis: pattern %q is outside the module root %s", pat, root)
		}
		if rel == "." {
			rel = ""
		}
		matched := false
		for _, pkg := range pkgs {
			if pkg.Dir == rel || recursive && (rel == "" || strings.HasPrefix(pkg.Dir, rel+"/")) {
				picked[pkg], matched = true, true
			}
		}
		if !matched {
			return nil, fmt.Errorf("analysis: pattern %q matches no module package", pat)
		}
	}
	files := map[string]bool{}
	for pkg := range picked {
		for _, f := range pkg.Files {
			files[pkg.Fset.Position(f.Pos()).Filename] = true
		}
	}
	out := &Result{Packages: len(picked)}
	for _, d := range r.Diagnostics {
		if files[d.File] {
			out.Diagnostics = append(out.Diagnostics, d)
		}
	}
	return out, nil
}

// RunPackages applies the configured analyzers to already-loaded
// packages (the seam fixture tests use). The call graph, when any
// selected analyzer declares RunModule, is built exactly once and
// shared across all of them.
func RunPackages(pkgs []*Package, cfg Config) *Result {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule != nil {
			graph = BuildCallGraph(pkgs)
			break
		}
	}
	// One suppression index, shared with the graph, records both
	// suppressed diagnostics and pruned edges.
	var supp map[string][]suppression
	if graph != nil {
		supp = graph.supp
	} else {
		supp = suppressionIndex(pkgs)
	}
	for _, a := range analyzers {
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
	}
	for _, pkg := range pkgs {
		diags = append(diags, directiveDiagnostics(pkg, analyzers)...)
	}
	applySuppressions(supp, diags)
	diags = append(diags, staleDirectives(supp, analyzers)...)
	sortDiagnostics(diags)
	return &Result{Diagnostics: diags, Packages: len(pkgs)}
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

// suppressionIndex collects the //mpg:lint-ignore directives of every
// file, keyed by display filename.
func suppressionIndex(pkgs []*Package) map[string][]suppression {
	supp := map[string][]suppression{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			supp[pkg.Fset.Position(f.Pos()).Filename] = collectSuppressions(pkg.Fset, f)
		}
	}
	return supp
}

// applySuppressions marks the diagnostics that directives cover.
func applySuppressions(supp map[string][]suppression, diags []Diagnostic) {
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

// staleDirectives reports each analyzer name of a directive that ran
// yet neither had a diagnostic suppressed nor a call edge pruned by
// it: the code it excused is gone, and a leftover suppression would
// silently excuse whatever lands on that line next. Names that did
// not run, and directives already invalid, are not judged.
func staleDirectives(supp map[string][]suppression, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, ss := range supp {
		for _, s := range ss {
			if s.used || !ran[s.analyzer] || s.reason == "" {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: "directive", File: s.directive.Filename, Line: s.directive.Line, Col: s.directive.Column,
				Message: fmt.Sprintf("mpg:lint-ignore %s suppresses nothing; delete the stale directive", s.analyzer),
			})
		}
	}
	return out
}
