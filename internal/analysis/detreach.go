package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicScope is the set of packages whose outputs must be a
// pure function of (trace, model, seed): the propagation engines
// (core.Analyze, core.Compile, core.ReplayCompiled and the shared
// kernels), the differential verifier, and the DES simulator and the
// baseline oracle built on it. It is the one determinism boundary:
// floateq scans these packages, and detreach roots its walk at every
// function declared in them. The observability layer and the CLI
// front-ends are deliberately outside it — wall-clock timing and
// progress reporting live there by design.
var deterministicScope = []string{
	"mpgraph/internal/core",
	"mpgraph/internal/verify",
	"mpgraph/internal/des",
	"mpgraph/internal/baseline",
}

// DetReachAnalyzer enforces determinism *by reachability*: every
// function declared in a deterministicScope package, and everything
// those functions can reach — not just everything that happens to
// live in the deterministic packages — must be a pure function of
// (trace, model, seed). A helper moved to a utility package stays
// covered for as long as the engine calls it. Along every reachable
// path it gates on:
//
//   - time.Now / time.Since / time.Until — wall-clock reads;
//   - any call into math/rand or math/rand/v2 — unseeded process-
//     global randomness;
//   - map iteration, unless the loop only collects keys/values into
//     slices that are subsequently sorted in the same function. Go
//     randomizes map iteration order per run, and even "harmless"
//     floating-point accumulation over a map is order-sensitive
//     because FP addition is not associative;
//   - writes to package-level variables — hidden mutable state makes
//     a second replay observe the first.
//
// Dynamic calls (interface dispatch, function values) are reported at
// info severity: determinism cannot be *verified* through them, but
// gating on every hook would force annotations onto caller-supplied
// callbacks whose contracts are documented elsewhere. This is the
// deliberate conservatism trade-off: unknown callees are surfaced,
// never silently trusted, but they advise rather than gate (unlike
// hotpathprop, where the allocation budget is a hard claim).
//
// An //mpg:lint-ignore detreach directive on a call site prunes that
// edge from the walk: the stated reason vouches for the subtree
// behind the call (e.g. an observability hook that reads the clock by
// design and feeds nothing back into replay results). Because every
// function in the scope is a root, a pruned callee that is itself in
// the scope is still checked; the directive then only records the
// boundary.
var DetReachAnalyzer = &Analyzer{
	Name:      "detreach",
	Doc:       "verifies determinism over every function of the deterministic packages and everything they reach through the call graph",
	RunModule: runDetReach,
}

var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true, // calls Now internally
	"Until": true,
}

func runDetReach(pass *ModulePass) {
	g := pass.Graph
	var roots []*FuncNode
	for _, n := range g.Funcs {
		for _, p := range deterministicScope {
			if matchPrefix(n.Pkg.ImportPath, p) {
				roots = append(roots, n)
				break
			}
		}
	}
	visited := g.Reach(pass.Analyzer.Name, roots, func(from *FuncNode, e *CallEdge, reason string) {
		pass.Report(from.Pkg, e.Site, "determinism verification stops at the call to %s (suppressed boundary)", e.Target())
	})
	for _, n := range g.Funcs {
		if _, ok := visited[n]; !ok {
			continue
		}
		chain := Chain(visited, n)
		for i := range n.Calls {
			e := &n.Calls[i]
			switch e.Kind {
			case EdgeUnknown:
				pass.ReportInfo(n.Pkg, e.Site, "%s: dynamic call (interface or function value): determinism cannot be verified through it", chain)
			case EdgeExternal:
				switch e.ExtPkg {
				case "time":
					if forbiddenTimeFuncs[e.ExtName] {
						pass.Report(n.Pkg, e.Site, "%s: time.%s on a replay-reachable path; replay results must not depend on wall-clock time", chain, e.ExtName)
					}
				case "math/rand", "math/rand/v2":
					pass.Report(n.Pkg, e.Site, "%s: %s.%s on a replay-reachable path; randomness must flow through seeded mpgraph/internal/dist generators", chain, e.ExtPkg, e.ExtName)
				}
			}
		}
		checkDetBody(pass, n, chain)
	}
}

// checkDetBody scans one reachable function body for determinism
// leaks that are not call edges: unsorted map ranges and writes to
// package-level state.
func checkDetBody(pass *ModulePass, n *FuncNode, chain string) {
	if n.Decl.Body == nil {
		return
	}
	pkg := n.Pkg
	file := fileOf(pkg, n.Decl.Pos())
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.RangeStmt:
			if file != nil && mapRangeNondet(pkg, file, x) {
				pass.Report(pkg, x.Pos(), "%s: map iteration order is nondeterministic on a replay-reachable path; collect keys and sort before use", chain)
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if v := packageLevelTarget(pkg, lhs); v != nil {
					pass.Report(pkg, lhs.Pos(), "%s: write to package-level variable %s on a replay-reachable path; replay results must be a pure function of (trace, model, seed)", chain, v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := packageLevelTarget(pkg, x.X); v != nil {
				pass.Report(pkg, x.Pos(), "%s: write to package-level variable %s on a replay-reachable path; replay results must be a pure function of (trace, model, seed)", chain, v.Name())
			}
		}
		return true
	})
}

// fileOf returns the *ast.File of pkg containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

// packageLevelTarget resolves the base of an assignment target
// (unwrapping selectors, index expressions, derefs and parens) and
// returns the variable when it is declared at package scope — in this
// module or, via a pkg.Var selector, in another module package.
func packageLevelTarget(pkg *Package, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pkg.pkgPathOf(id); isPkg {
					return pkgScopeVar(pkg.Info.Uses[x.Sel])
				}
			}
			e = x.X
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			return pkgScopeVar(pkg.Info.Uses[x])
		default:
			return nil
		}
	}
}

func pkgScopeVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// mapRangeNondet reports whether rng iterates a map without the
// collect-then-sort escape hatch: every statement in the loop body
// appends the key or value to a slice variable (possibly behind a
// plain if-filter), and at least one of those slices is later passed
// to a sort or slices call inside the same function.
func mapRangeNondet(pkg *Package, f *ast.File, rng *ast.RangeStmt) bool {
	if !isMap(pkg.typeOf(rng.X)) {
		return false
	}
	collected := map[string]bool{}
	return !(collectOnly(pkg, rng.Body.List, collected) && len(collected) > 0 &&
		sortedLater(pkg, f, rng, collected))
}

// collectOnly reports whether every statement is an append of the
// form `s = append(s, ...)` — optionally wrapped in an else-less if —
// recording the destination slice names.
func collectOnly(pkg *Package, stmts []ast.Stmt, collected map[string]bool) bool {
	for _, st := range stmts {
		switch x := st.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return false
			}
			lhs, ok := x.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := x.Rhs[0].(*ast.CallExpr)
			if !ok || !pkg.isBuiltin(call, "append") || len(call.Args) == 0 {
				return false
			}
			if first, ok := call.Args[0].(*ast.Ident); !ok || first.Name != lhs.Name {
				return false
			}
			collected[lhs.Name] = true
		case *ast.IfStmt:
			if x.Else != nil || x.Init != nil || !collectOnly(pkg, x.Body.List, collected) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortedLater reports whether, after the range statement, the
// enclosing function passes one of the collected slices to a
// sort-package function.
func sortedLater(pkg *Package, f *ast.File, rng *ast.RangeStmt, collected map[string]bool) bool {
	body := enclosingFuncBody(f, rng)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if p, _, ok := pkg.callTarget(call); !ok || (p != "sort" && p != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && collected[id.Name] {
				found = true
			}
		}
		return true
	})
	return found
}
