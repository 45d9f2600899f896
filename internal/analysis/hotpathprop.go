package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathPropAnalyzer enforces the allocation budget of the
// //mpg:hotpath roots and of everything they reach. The compiled
// replay loop owes its ~11 allocs/replay (BenchmarkReplayCompiled
// -benchmem, AllocsPerRun guards) to every buffer being pooled or
// preallocated; one stray literal or append in a kernel — or in a
// helper the kernel calls — silently multiplies by the number of
// Monte Carlo trials.
// The analyzer is deliberately stricter than the optimizer: a
// construct the escape analyzer would stack-allocate still needs an
// explicit suppression, which doubles as documentation of the alloc
// budget and is pinned by the corresponding AllocsPerRun test.
//
// It computes the transitive closure of the annotated roots over the
// call graph and, in every function of that closure (annotated or
// not), reports at the construct with the call chain from the root
// ("core.ReplayCompiled → core.newReplayState: make allocates"):
//
//   - make/new calls and &composite-literal (heap allocations);
//   - slice and map composite literals (allocate backing storage) —
//     plain struct *value* literals stay legal;
//   - append calls (growth may allocate; preallocate capacity or
//     justify via suppression);
//   - function literals (closure environments may allocate);
//   - implicit boxing: a non-pointer concrete value passed to an
//     interface parameter or assigned to an interface variable;
//   - a call into fmt or reflect (allocate, box, defeat
//     devirtualization);
//   - a dynamic call (interface dispatch, function value, lost type
//     info): the callee cannot be proven allocation-free. Unknown
//     callees taint — they are never silently dropped.
//
// An //mpg:lint-ignore hotpathprop directive on a call site prunes
// that edge from the closure: the reason justifies the entire subtree
// behind the call (an out-of-band metrics registry, a caller-provided
// hook documented as non-hot). Each pruned edge still emits an
// always-suppressed diagnostic so the report carries the audit trail.
var HotPathPropAnalyzer = &Analyzer{
	Name:      "hotpathprop",
	Doc:       "forbids allocating constructs in //mpg:hotpath functions and everything they reach through the call graph",
	RunModule: runHotPathProp,
}

func runHotPathProp(pass *ModulePass) {
	g := pass.Graph
	var roots []*FuncNode
	for _, n := range g.Funcs {
		if n.HotPath {
			roots = append(roots, n)
		}
	}
	visited := g.Reach(pass.Analyzer.Name, roots, func(from *FuncNode, e *CallEdge, reason string) {
		// Audit trail for the pruned boundary; the directive that
		// caused the prune marks this suppressed, so it never gates.
		pass.Report(from.Pkg, e.Site, "hot-path propagation stops at the call to %s: callee not proven allocation-free (suppressed boundary)", e.Target())
	})
	for _, n := range g.Funcs { // Funcs is name-sorted: deterministic output
		if _, ok := visited[n]; !ok {
			continue
		}
		chain := Chain(visited, n)
		scanAllocs(n, func(pos token.Pos, what string) {
			pass.Report(n.Pkg, pos, "%s: %s", chain, what)
		})
		for i := range n.Calls {
			e := &n.Calls[i]
			switch e.Kind {
			case EdgeUnknown:
				pass.Report(n.Pkg, e.Site, "%s: dynamic call (interface or function value) cannot be proven allocation-free; devirtualize, hoist off the hot path, or suppress the edge with justification", chain)
			case EdgeExternal:
				switch e.ExtPkg {
				case "fmt":
					pass.Report(n.Pkg, e.Site, "%s: fmt.%s allocates and boxes its operands", chain, e.ExtName)
				case "reflect":
					pass.Report(n.Pkg, e.Site, "%s: reflect.%s reaches the hot path; reflection allocates and defeats devirtualization", chain, e.ExtName)
				}
			}
		}
	}
}

// scanAllocs reports the allocating constructs in one function body.
// Calls into fmt are left to the call-edge check, which reports them
// once per call rather than once per boxed operand.
func scanAllocs(n *FuncNode, report func(pos token.Pos, what string)) {
	if n.Decl.Body == nil {
		return
	}
	pkg := n.Pkg
	skipComposite := map[*ast.CompositeLit]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "closure environment may be heap-allocated")
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := x.X.(*ast.CompositeLit); ok {
					skipComposite[cl] = true
					report(x.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if skipComposite[x] {
				return true
			}
			if t := pkg.typeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "slice literal allocates backing storage")
				case *types.Map:
					report(x.Pos(), "map literal allocates backing storage")
				}
			}
		case *ast.CallExpr:
			switch {
			case pkg.isBuiltin(x, "make"):
				report(x.Pos(), "make allocates")
			case pkg.isBuiltin(x, "new"):
				report(x.Pos(), "new allocates")
			case pkg.isBuiltin(x, "append"):
				report(x.Pos(), "append allocates (growth may reallocate the backing array)")
			default:
				if p, _, ok := pkg.callTarget(x); !ok || p != "fmt" {
					scanBoxingArgs(pkg, x, report)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				if lt := pkg.typeOf(lhs); lt != nil && types.IsInterface(lt) && boxes(pkg, x.Rhs[i]) {
					report(x.Rhs[i].Pos(), "implicit interface conversion boxes a value on the heap; store a pointer instead")
				}
			}
		}
		return true
	})
}

// scanBoxingArgs reports non-pointer concrete arguments passed to
// interface parameters (implicit boxing allocates; pointers fit in
// the interface word and do not).
func scanBoxingArgs(pkg *Package, call *ast.CallExpr, report func(pos token.Pos, what string)) {
	ft := pkg.typeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && boxes(pkg, arg) {
			report(arg.Pos(), "implicit interface conversion boxes a value on the heap; pass a pointer or restructure")
		}
	}
}

// boxes reports whether assigning e to an interface would heap-box
// it: a concrete non-pointer, non-interface, non-nil value. Small
// integer constants (the runtime's staticuint64s) are still reported:
// the hot path should not rely on that cache.
func boxes(pkg *Package, e ast.Expr) bool {
	t := pkg.typeOf(e)
	if t == nil {
		return false
	}
	if tv, ok := pkg.Info.Types[e]; ok && tv.IsNil() {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}
