package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetReachAnalyzer enforces determinism *by reachability*: everything
// the replay kernels can reach — not just everything that happens to
// live in the deterministic packages — must be a pure function of
// (trace, model, seed). The file-local nondet analyzer draws its
// boundary by import path; a helper moved to a utility package slips
// out of that scope while staying firmly on the replay path. detreach
// closes the gap by walking the call graph from the replay roots:
//
//   - core.ReplayCompiled (the compiled replay engine),
//   - every function declared in internal/core/compute.go (the shared
//     propagation kernels),
//   - baseline.Replay / baseline.ReplayRetimed (the DES oracle the
//     differential verifier diffs against).
//
// Along every reachable path it gates on:
//
//   - time.Now / time.Since / time.Until — wall-clock reads;
//   - any call into math/rand or math/rand/v2 — unseeded process-
//     global randomness;
//   - map iteration outside the collect-then-sort idiom — Go
//     randomizes iteration order per run;
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
// design and feeds nothing back into replay results).
var DetReachAnalyzer = &Analyzer{
	Name:      "detreach",
	Doc:       "verifies determinism over everything reachable from the replay kernels and the DES oracle, not just the statically scoped packages",
	RunModule: runDetReach,
}

// detReachRoots names the entry points whose reachable closure must
// stay deterministic, as (import path, function name) pairs.
var detReachRoots = []struct{ pkg, name string }{
	{"mpgraph/internal/core", "ReplayCompiled"},
	{"mpgraph/internal/baseline", "Replay"},
	{"mpgraph/internal/baseline", "ReplayRetimed"},
}

// detReachRootFiles roots every function declared in these files (the
// shared propagation kernels are roots as a file, so a new kernel is
// covered the moment it is written).
var detReachRootFiles = map[string]bool{
	"internal/core/compute.go": true,
}

func runDetReach(pass *ModulePass) {
	g := pass.Graph
	var roots []*FuncNode
	for _, n := range g.Funcs {
		if detReachRootFiles[n.Pkg.Fset.Position(n.Decl.Pos()).Filename] {
			roots = append(roots, n)
			continue
		}
		for _, r := range detReachRoots {
			if n.Pkg.ImportPath == r.pkg && n.Obj.Name() == r.name && n.Decl.Recv == nil {
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
