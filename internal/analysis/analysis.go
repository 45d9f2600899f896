// Package analysis is a zero-dependency (stdlib go/ast + go/parser +
// go/types only) static-analysis framework for the repository's own
// source tree. It exists to prove, at lint time, the determinism and
// hot-path invariants that the runtime test suites can only sample:
// byte-identical serial/parallel/compiled replays (DESIGN.md §4.1
// sample-invariant schedule, §4.3 order preservation) and the
// ~12-allocs/replay compiled hot path.
//
// The framework loads the module's packages from source, type-checked
// against the real standard library; a type error is a load error. It
// runs a set of domain Analyzers over each package and filters the
// diagnostics through explicit source suppressions
// (//mpg:lint-ignore). There is no baseline: every finding is either
// fixed or suppressed in source with a reason, and a suppression that
// no longer excuses anything is itself a finding.
//
// Two source directives drive the suite:
//
//	//mpg:hotpath
//	    in a function's doc comment marks it as an allocation-free
//	    hot path; the hotpathprop analyzer then forbids allocating
//	    constructs in its body and in everything it calls.
//
//	//mpg:lint-ignore <analyzer>[,<analyzer>...] <reason>
//	    suppresses the named analyzers' diagnostics, either on the
//	    same line (trailing comment) or — as a standalone comment —
//	    for the whole statement or declaration that starts on the
//	    next non-directive line (standalone directives stack). The
//	    reason is mandatory and is carried into reports; a directive
//	    that suppresses nothing for an analyzer that ran is stale and
//	    is reported. For the
//	    interprocedural analyzers (hotpathprop, detreach) a
//	    suppression on a call site additionally prunes that call
//	    edge from the reachability closure, so one justified
//	    boundary (e.g. an out-of-band metrics call) stops the whole
//	    transitive walk instead of requiring suppressions in every
//	    function behind it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive prefixes recognized in comments.
const (
	DirectiveHotPath = "//mpg:hotpath"
	DirectiveIgnore  = "//mpg:lint-ignore"
)

// Analyzer is one named check. Run is invoked once per loaded package
// that falls inside the analyzer's scope.
type Analyzer struct {
	// Name is the stable identifier used in reports and
	// suppressions.
	Name string
	// Doc is a one-line description, shown by mpg-lint -list.
	Doc string
	// Scope restricts the analyzer to packages whose import path
	// matches one of these prefixes (a prefix matches the package
	// itself or any package below it). Empty means every package.
	Scope []string
	// Exempt removes packages from Scope by the same prefix rule;
	// exemption wins over scope.
	Exempt []string
	// Run performs the check, reporting findings via pass.Report.
	// File-local analyzers set Run; it is invoked once per in-scope
	// package.
	Run func(pass *Pass)
	// RunModule, when set, marks an interprocedural analyzer: it is
	// invoked exactly once per run with every loaded package and the
	// shared call graph, and Run/Scope/Exempt are ignored (module
	// analyzers scope themselves).
	RunModule func(pass *ModulePass)
}

// appliesTo reports whether the analyzer should run on a package.
func (a *Analyzer) appliesTo(importPath string) bool {
	for _, p := range a.Exempt {
		if matchPrefix(importPath, p) {
			return false
		}
	}
	if len(a.Scope) == 0 {
		return true
	}
	for _, p := range a.Scope {
		if matchPrefix(importPath, p) {
			return true
		}
	}
	return false
}

// matchPrefix reports whether path is prefix itself or lies below it
// ("a/b" matches "a/b" and "a/b/c", never "a/bc").
func matchPrefix(path, prefix string) bool {
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Report records a finding at the given position.
func (p *Pass) Report(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Func:     enclosingFuncName(p.Pkg, pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one interprocedural analyzer's view of the whole
// loaded module: every package plus the shared call graph.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph

	report func(Diagnostic)
}

// Report records a gating finding at the given position, resolving
// the owning package from the graph's shared FileSet.
func (p *ModulePass) Report(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	p.reportSeverity(pkg, pos, "", format, args...)
}

// ReportInfo records an advisory (non-gating) finding.
func (p *ModulePass) ReportInfo(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	p.reportSeverity(pkg, pos, SeverityInfo, format, args...)
}

func (p *ModulePass) reportSeverity(pkg *Package, pos token.Pos, severity, format string, args ...interface{}) {
	position := pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Func:     enclosingFuncName(pkg, pos),
		Message:  fmt.Sprintf(format, args...),
		Severity: severity,
	})
}

// SeverityInfo marks advisory findings (unprovable-determinism
// notes). Info diagnostics appear in reports but never gate:
// Outstanding skips them. The empty severity is an error (gating), so existing
// analyzers and serialized reports keep their meaning.
const SeverityInfo = "info"

// Diagnostic is one finding, positioned in the source tree. File is
// the path as the loader saw it (module-relative when loaded through
// Load).
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	// Func is the enclosing function or method name at the position
	// ("" at file scope).
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
	// Severity is "" for gating findings and SeverityInfo for
	// advisory ones.
	Severity string `json:"severity,omitempty"`

	// Suppressed is set when an //mpg:lint-ignore directive covers
	// the diagnostic; Reason carries the directive's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// enclosingFuncName names the function or method declaration whose
// body (or signature) spans pos: "Func" for functions,
// "(Recv).Method" for methods, "" at file scope.
func enclosingFuncName(pkg *Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fn.Pos() || pos > fn.End() {
				continue
			}
			return funcDeclName(fn)
		}
	}
	return ""
}

// funcDeclName renders a declaration's name with its receiver type.
func funcDeclName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	return "(" + recvTypeName(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}

// recvTypeName renders a receiver type expression ("T", "*T";
// generic receivers drop their type parameters).
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// sortDiagnostics orders findings by file, line, column, analyzer for
// stable output.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// suppression is one parsed //mpg:lint-ignore directive with the line
// span it covers.
type suppression struct {
	analyzer  string
	reason    string
	directive token.Position // the comment itself
	firstLine int            // first covered line
	lastLine  int            // last covered line (inclusive)
	used      bool           // suppressed a diagnostic or pruned a call edge
}

// collectSuppressions parses every //mpg:lint-ignore directive in a
// file. A trailing directive covers its own line; a standalone
// directive covers the whole statement or declaration beginning on
// the next non-directive line (so one directive covers a multi-line
// composite literal, and standalone directives for different
// analyzers stack above one statement). A directive naming several
// analyzers (comma-separated) yields one suppression per name.
func collectSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	// Line spans of statements/declarations, for standalone
	// directives that cover the following node.
	type span struct{ first, last int }
	var spans []span
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.Field:
			spans = append(spans, span{
				fset.Position(n.Pos()).Line,
				fset.Position(n.End()).Line,
			})
		}
		return true
	})
	// Lines holding standalone directives, so a stack of directives
	// above one statement all skip forward to the statement itself.
	directiveLines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, DirectiveIgnore) &&
				(fset.Position(c.Pos()).Column == 1 || standsAlone(fset, f, c)) {
				directiveLines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	coveredThrough := func(startLine int) int {
		// The largest last-line among nodes starting on startLine.
		last := startLine
		for _, s := range spans {
			if s.first == startLine && s.last > last {
				last = s.last
			}
		}
		return last
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectiveIgnore) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, DirectiveIgnore))
			names, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			line := pos.Line
			first, last := line, line
			if directiveLines[line] {
				// Standalone comment: cover the next node, skipping any
				// further stacked directives in between.
				first = line + 1
				for directiveLines[first] {
					first++
				}
				last = coveredThrough(first)
			}
			for _, name := range strings.Split(names, ",") {
				out = append(out, suppression{
					analyzer:  strings.TrimSpace(name),
					reason:    strings.TrimSpace(reason),
					directive: pos,
					firstLine: first,
					lastLine:  last,
				})
			}
		}
	}
	return out
}

// standsAlone reports whether the comment is the only thing on its
// line (i.e. not a trailing comment after code).
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if _, ok := n.(*ast.Comment); ok {
			return true
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return true
		}
		if fset.Position(n.Pos()).Line <= line && fset.Position(n.End()).Line >= line {
			// A node overlapping the comment's line is fine if it's a
			// container (block, function, file); only leaf code on the
			// same exact line makes the comment "trailing".
			switch n.(type) {
			case *ast.File, *ast.BlockStmt, *ast.FuncDecl, *ast.GenDecl,
				*ast.CaseClause, *ast.CommClause, *ast.StructType,
				*ast.InterfaceType, *ast.FieldList, *ast.CompositeLit,
				*ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
				*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
				return true
			}
			if fset.Position(n.Pos()).Line == line || fset.Position(n.End()).Line == line {
				alone = false
				return false
			}
		}
		return true
	})
	return alone
}

// hasHotPathDirective reports whether a function declaration carries
// the //mpg:hotpath marker in its doc comment.
func hasHotPathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == DirectiveHotPath || strings.HasPrefix(c.Text, DirectiveHotPath+" ") {
			return true
		}
	}
	return false
}
