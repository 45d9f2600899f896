package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Whole-module call graph.
//
// The interprocedural analyzers (hotpathprop, detreach,
// concdiscipline) need to reason about what the replay kernels
// *reach*, not just what their bodies contain. BuildCallGraph
// resolves every call site in the loaded packages to one of three
// edge kinds:
//
//   - static: the callee is a declared function or method of the
//     module, resolved through go/types — direct calls, method calls
//     on concrete receiver types (including methods promoted through
//     embedding), and cross-package calls all land here;
//   - external: the callee is a function or method declared outside
//     the loaded packages (the standard library, in a whole-module
//     run), so only its import path and name are used — the graph
//     cannot descend into it, and each analyzer decides which external
//     packages are benign (math, sort) and which are findings (fmt,
//     time.Now);
//   - unknown: the callee cannot be named at all — interface method
//     calls and calls through function-typed values (including method
//     values). Unknown edges taint: an analyzer that proves a
//     property by reachability must treat them as "anything could
//     happen here", never silently drop them.
//
// Packages are type-checked against the real standard library; a
// type error is a load error, so every call site resolves.
//
// Soundness note: the graph covers *calls only*. Taking a function or
// method value creates no edge at the use site; the later call
// through the value is an unknown edge at the call site, which is
// where the conservatism lands. Dead edges (calls behind
// unreachable branches) are included — the graph over-approximates.

// EdgeKind classifies a call edge's resolution.
type EdgeKind uint8

const (
	// EdgeStatic resolves to a module function with a known body.
	EdgeStatic EdgeKind = iota
	// EdgeExternal names a function outside the module (ExtPkg,
	// ExtName); no body is available.
	EdgeExternal
	// EdgeUnknown is a dynamic call: interface dispatch or a
	// function-typed value.
	EdgeUnknown
)

// CallEdge is one call site in a function body.
type CallEdge struct {
	Kind   EdgeKind
	Callee *FuncNode // non-nil iff Kind == EdgeStatic
	// ExtPkg/ExtName identify an external callee ("time", "Now").
	ExtPkg  string
	ExtName string
	// Site is the call expression's position (the suppression line
	// for edge pruning).
	Site token.Pos
}

// Target renders the edge's callee for diagnostics.
func (e *CallEdge) Target() string {
	switch e.Kind {
	case EdgeStatic:
		return e.Callee.Name
	case EdgeExternal:
		return path.Base(e.ExtPkg) + "." + e.ExtName
	}
	return "dynamic callee"
}

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	// Obj is the type-checker object keying the node.
	Obj *types.Func
	// Decl is the syntax, in Pkg. Function literals contribute their
	// bodies (and edges) to the enclosing declaration.
	Decl *ast.FuncDecl
	Pkg  *Package
	// Name is the display name: "core.ReplayCompiled",
	// "dist.(*RNG).Uint64".
	Name string
	// HotPath reports the //mpg:hotpath doc directive.
	HotPath bool
	// Calls lists the node's outgoing edges in source order.
	Calls []CallEdge
}

// CallGraph is the module-wide call graph plus the per-file
// suppression index the interprocedural analyzers use for edge
// pruning.
type CallGraph struct {
	// Nodes maps every declared module function to its node.
	Nodes map[*types.Func]*FuncNode
	// Funcs is Nodes' values sorted by Name for deterministic walks.
	Funcs []*FuncNode
	// UnknownCalls counts unresolved (dynamic) edges, for the
	// self-benchmark's conservatism trend line.
	UnknownCalls int

	supp map[string][]suppression // per display filename, for edge pruning
}

// NodeByName resolves a display name ("core.ReplayCompiled") to its
// node, or nil.
func (g *CallGraph) NodeByName(name string) *FuncNode {
	for _, n := range g.Funcs {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// EdgeCount returns the total number of edges of the given kind.
func (g *CallGraph) EdgeCount(kind EdgeKind) int {
	total := 0
	for _, n := range g.Funcs {
		for i := range n.Calls {
			if n.Calls[i].Kind == kind {
				total++
			}
		}
	}
	return total
}

// edgePruned reports whether an //mpg:lint-ignore directive for the
// given analyzer covers the edge's call-site line. A pruned edge is
// excluded from that analyzer's reachability closure: the suppression
// reason justifies the whole subtree behind the call, which is how a
// documented boundary (an out-of-band metrics call, a caller-provided
// hook) stops transitive findings without suppressions in every
// function behind it. A pruning directive is marked used, so it is
// never reported as stale.
func (g *CallGraph) edgePruned(analyzer string, pkg *Package, site token.Pos) (reason string, pruned bool) {
	pos := pkg.Fset.Position(site)
	for i := range g.supp[pos.Filename] {
		s := &g.supp[pos.Filename][i]
		if s.analyzer == analyzer && s.reason != "" &&
			pos.Line >= s.firstLine && pos.Line <= s.lastLine {
			s.used = true
			return s.reason, true
		}
	}
	return "", false
}

// displayName renders a node name from the type-checker object:
// package base name, receiver type if any, function name.
func displayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		if n, ok := rt.(*types.Named); ok {
			name = "(" + ptr + n.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return path.Base(fn.Pkg().Path()) + "." + name
	}
	return name
}

// BuildCallGraph resolves the static call graph over the loaded
// packages. Only calls appearing in the given packages produce edges;
// a callee declared in a module package outside the load set still
// resolves as a static edge but has no body edges of its own.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes: map[*types.Func]*FuncNode{},
		supp:  suppressionIndex(pkgs),
	}
	// Pass 1: a node per function declaration, so forward and
	// cross-package references resolve.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[fd.Name].(*types.Func)
				g.Nodes[obj] = &FuncNode{
					Obj:     obj,
					Decl:    fd,
					Pkg:     pkg,
					Name:    displayName(obj),
					HotPath: hasHotPathDirective(fd),
				}
			}
		}
	}
	// Pass 2: edges. Function literals attribute their calls to the
	// enclosing declaration — a closure runs on its creator's stack of
	// responsibility as far as reachability is concerned.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := g.Nodes[obj]
				if node == nil {
					continue
				}
				closures := localClosureVars(pkg, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if edge, ok := resolveCall(pkg, call, g.Nodes, closures); ok {
						if edge.Kind == EdgeUnknown {
							g.UnknownCalls++
						}
						node.Calls = append(node.Calls, edge)
					}
					return true
				})
			}
		}
	}
	g.Funcs = make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		g.Funcs = append(g.Funcs, n)
	}
	sort.Slice(g.Funcs, func(i, j int) bool {
		if g.Funcs[i].Name != g.Funcs[j].Name {
			return g.Funcs[i].Name < g.Funcs[j].Name
		}
		// Same display name (e.g. methods on same-named receivers in
		// different packages): order by position for determinism.
		return g.Funcs[i].Decl.Pos() < g.Funcs[j].Decl.Pos()
	})
	return g
}

// localClosureVars finds the variables in body that hold exactly one
// function literal and are never reassigned or address-taken: a call
// through such a variable is a call to that literal, whose edges are
// already attributed to the enclosing declaration, so it resolves
// instead of tainting as dynamic (the `adopt := func(...){...}` kernel
// idiom would otherwise make every kernel unprovable).
func localClosureVars(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	candidate := map[types.Object]bool{}
	tainted := map[types.Object]bool{}
	bind := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			return
		}
		if _, isLit := rhs.(*ast.FuncLit); isLit {
			candidate[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					bind(x.Lhs[i], x.Rhs[i])
				}
				return true
			}
			// Reassignment kills the single-binding guarantee.
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					bind(x.Names[i], x.Values[i])
				}
			}
		case *ast.UnaryExpr:
			// Address-taken: the variable can be rebound through the
			// pointer.
			if x.Op == token.AND {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})
	for obj := range tainted {
		delete(candidate, obj)
	}
	return candidate
}

// resolveCall classifies one call expression. Returns ok=false for
// non-calls that parse as CallExpr: type conversions and builtins
// (make, len, append — the analyzers' body scans handle those).
func resolveCall(pkg *Package, call *ast.CallExpr, nodes map[*types.Func]*FuncNode, closures map[types.Object]bool) (CallEdge, bool) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](x) — resolve the underlying ident.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := pkg.Info.Types[idx.X]; ok && !tv.IsType() {
			fun = idx.X
		}
	case *ast.IndexListExpr:
		fun = idx.X
	}
	// A conversion is not a call.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return CallEdge{}, false
	}
	switch x := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[x].(type) {
		case *types.Builtin:
			return CallEdge{}, false
		case *types.TypeName:
			return CallEdge{}, false
		case *types.Func:
			return staticOrExternal(obj, nodes, call.Lparen), true
		default:
			if closures[obj] {
				// Single-assignment local closure: its literal's body is
				// already attributed to the enclosing declaration.
				return CallEdge{}, false
			}
			// A variable of function type: dynamic call.
			return CallEdge{Kind: EdgeUnknown, Site: call.Lparen}, true
		}
	case *ast.SelectorExpr:
		sel, ok := pkg.Info.Selections[x]
		if !ok {
			// pkg.Fn(...) — a qualified identifier has no selection.
			if obj, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				return staticOrExternal(obj, nodes, call.Lparen), true
			}
		} else if m, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal &&
			!types.IsInterface(m.Type().(*types.Signature).Recv().Type()) {
			// expr.Method(...) on a concrete method, promoted or not.
			return staticOrExternal(m, nodes, call.Lparen), true
		}
		// Interface dispatch, a method expression, or a field or
		// package variable of function type: dynamic.
		return CallEdge{Kind: EdgeUnknown, Site: call.Lparen}, true
	case *ast.FuncLit:
		// Immediately-invoked literal: its body's edges are already
		// attributed to the enclosing declaration.
		return CallEdge{}, false
	}
	return CallEdge{Kind: EdgeUnknown, Site: call.Lparen}, true
}

// staticOrExternal wires an edge to a module node when the resolved
// function has one, and an external edge otherwise.
func staticOrExternal(obj *types.Func, nodes map[*types.Func]*FuncNode, site token.Pos) CallEdge {
	if n, ok := nodes[obj]; ok {
		return CallEdge{Kind: EdgeStatic, Callee: n, Site: site}
	}
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return CallEdge{Kind: EdgeExternal, ExtPkg: pkgPath, ExtName: obj.Name(), Site: site}
}

// ReachStep records how a node entered a reachability closure: the
// caller and the edge used, for call-chain reconstruction.
type ReachStep struct {
	From *FuncNode
	Edge *CallEdge
}

// Reach computes the closure of the roots over static edges,
// breadth-first (so recorded chains are shortest), in deterministic
// order. Edges covered by an //mpg:lint-ignore directive for the
// given analyzer at their call-site line are pruned: the pruned
// callback (if non-nil) observes each such edge once, and traversal
// does not descend through it. Roots map to a zero ReachStep.
func (g *CallGraph) Reach(analyzer string, roots []*FuncNode,
	pruned func(from *FuncNode, edge *CallEdge, reason string)) map[*FuncNode]ReachStep {
	visited := map[*FuncNode]ReachStep{}
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := visited[r]; !ok {
			visited[r] = ReachStep{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for i := range n.Calls {
			e := &n.Calls[i]
			if e.Kind != EdgeStatic {
				continue
			}
			if _, ok := visited[e.Callee]; ok {
				continue
			}
			if reason, p := g.edgePruned(analyzer, n.Pkg, e.Site); p {
				if pruned != nil {
					pruned(n, e, reason)
				}
				continue
			}
			visited[e.Callee] = ReachStep{From: n, Edge: e}
			queue = append(queue, e.Callee)
		}
	}
	return visited
}

// Chain reconstructs the call chain from a root to node as
// "root → ... → node".
func Chain(visited map[*FuncNode]ReachStep, node *FuncNode) string {
	var names []string
	for n := node; n != nil; {
		names = append(names, n.Name)
		step, ok := visited[n]
		if !ok || step.From == nil {
			break
		}
		n = step.From
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}
