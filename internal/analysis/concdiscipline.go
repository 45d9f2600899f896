package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ConcDisciplineAnalyzer enforces the concurrency discipline of the
// packages replays run concurrently in (internal/parallel's worker
// pool and internal/core's pooled replay state). Four rules, each a
// well-known way a data race or a deadlock sneaks past `go vet`-level
// review:
//
//  1. Lock-bearing values must not be copied. A struct that contains
//     (directly or transitively) a sync.Mutex, RWMutex, WaitGroup,
//     Once, Cond, Pool, Map or a sync/atomic value is flagged when a
//     method takes it by value receiver or an assignment copies it:
//     the copy carries a snapshot of the lock state, so the original
//     and the copy guard nothing together.
//  2. A field updated through sync/atomic somewhere must be updated
//     through sync/atomic everywhere. Mixing atomic.AddInt64(&s.n, 1)
//     with a plain s.n++ loses the atomicity the first site paid for.
//  3. Goroutine closures must not capture loop variables — pass them
//     as call arguments. Go ≥1.22 makes the capture per-iteration, so
//     this is a discipline rule rather than a correctness one: the
//     explicit argument is the visible ownership transfer.
//  4. Goroutine closures must not write to captured outer variables
//     (directly or through an index). Owned output slots — each
//     goroutine writing only its own index — are the sanctioned
//     exception, suppressed in place with the reason documenting the
//     ownership argument.
//
// A fifth, interprocedural rule rides on the call graph: no channel
// sends anywhere in the //mpg:hotpath closure. A send blocks on the
// receiver, so one slow consumer stalls the replay inner loop.
//
// Packages are type-checked against the real standard library; a
// type error is a load error. Lock-bearing types are therefore found
// by type, through aliases, fixed-size arrays and nested module
// structs.
var ConcDisciplineAnalyzer = &Analyzer{
	Name:      "concdiscipline",
	Doc:       "enforces the concurrency rules of the replay packages: no lock copies, no mixed atomic/plain access, no loop-var capture or captured writes in goroutines, no channel sends on the hot path",
	RunModule: runConcDiscipline,
}

// concScopePrefixes limits rules 1–4 to the packages that run
// replays concurrently (fixture packages nest under them).
var concScopePrefixes = []string{
	"mpgraph/internal/parallel",
	"mpgraph/internal/core",
}

func inConcScope(importPath string) bool {
	for _, p := range concScopePrefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

func runConcDiscipline(pass *ModulePass) {
	var scoped []*Package
	for _, pkg := range pass.Pkgs {
		if inConcScope(pkg.ImportPath) {
			scoped = append(scoped, pkg)
		}
	}
	locks := lockIndex{}
	for _, pkg := range pass.Pkgs {
		locks[pkg.Types] = true
	}
	for _, pkg := range scoped {
		checkLockCopies(pass, pkg, locks)
		checkAtomicMix(pass, pkg)
		checkGoroutines(pass, pkg)
	}
	checkHotPathSends(pass)
}

// syncLockTypes are the sync types whose zero-value identity matters:
// copying any of them detaches the copy from every existing waiter.
var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Pool": true, "Map": true,
}

// lockIndex is the set of loaded module packages, whose struct types
// are searched for sync state.
type lockIndex map[*types.Package]bool

// carrier reports whether t (aliases looked through) is a module
// struct type that holds sync state: a field of a syncLockTypes type
// or of any sync/atomic type, or of another such struct, directly or
// in a fixed-size array (a slice, map or pointer is a reference and
// holds none). It returns the struct's name and a provenance like
// "sync.Mutex (field mu)", or nil.
func (m lockIndex) carrier(t types.Type) (*types.TypeName, string) {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || !m[named.Obj().Pkg()] {
		return nil, ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		where := "field " + f.Name()
		if f.Embedded() {
			where = "embedded"
		}
		ft := types.Unalias(f.Type())
		for arr, ok := ft.(*types.Array); ok; arr, ok = ft.(*types.Array) {
			ft = types.Unalias(arr.Elem())
		}
		if name := syncStateName(ft); name != "" {
			return named.Obj(), name + " (" + where + ")"
		}
		if inner, via := m.carrier(ft); inner != nil {
			return named.Obj(), via + " via " + where + " " + inner.Name()
		}
	}
	return nil, ""
}

// syncStateName qualifies t when it is a syncLockTypes type or a
// sync/atomic type ("sync.Mutex", "atomic.Int64"), and returns ""
// otherwise.
func syncStateName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	switch name := named.Obj().Name(); named.Obj().Pkg().Path() {
	case "sync":
		if syncLockTypes[name] {
			return "sync." + name
		}
	case "sync/atomic":
		return "atomic." + name
	}
	return ""
}

// checkLockCopies flags value receivers on lock-bearing types and
// assignments that copy lock-bearing values.
func checkLockCopies(pass *ModulePass, pkg *Package, locks lockIndex) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Recv == nil {
					return true
				}
				recv := pkg.Info.Defs[x.Name].Type().(*types.Signature).Recv()
				if tn, via := locks.carrier(recv.Type()); tn != nil {
					pass.Report(pkg, x.Recv.Pos(), "method %s copies its receiver %s, which contains %s; use a pointer receiver", x.Name.Name, tn.Name(), via)
				}
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					reportLockCopy(pass, pkg, locks, rhs, "assignment")
				}
			case *ast.ValueSpec:
				for _, v := range x.Values {
					reportLockCopy(pass, pkg, locks, v, "declaration")
				}
			case *ast.RangeStmt:
				if x.Value != nil {
					if tn, via := locks.carrier(rangeValueType(pkg, x.Value)); tn != nil {
						pass.Report(pkg, x.Value.Pos(), "range value copies %s, which contains %s; iterate by index and take a pointer", tn.Name(), via)
					}
				}
			}
			return true
		})
	}
}

// rangeValueType resolves the type of a range value expression. A
// `:=`-declared range variable is recorded in Defs, not Types, so
// typeOf alone would miss it.
func rangeValueType(pkg *Package, e ast.Expr) types.Type {
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return pkg.typeOf(e)
}

// reportLockCopy flags e when evaluating it yields a by-value copy of
// a lock-bearing struct. Construction sites — composite literals and
// call results — are initialization, not copies of a shared value,
// and stay legal.
func reportLockCopy(pass *ModulePass, pkg *Package, locks lockIndex, e ast.Expr, what string) {
	switch ast.Unparen(e).(type) {
	case *ast.CompositeLit, *ast.CallExpr:
		return
	}
	if tn, via := locks.carrier(pkg.typeOf(e)); tn != nil {
		pass.Report(pkg, e.Pos(), "%s copies %s, which contains %s; share a *%s instead", what, tn.Name(), via, tn.Name())
	}
}

// checkAtomicMix collects every variable or field passed to a
// sync/atomic function by address, then flags plain writes to the
// same object elsewhere in the package.
func checkAtomicMix(pass *ModulePass, pkg *Package) {
	atomicObjs := map[types.Object]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if p, _, ok := pkg.callTarget(call); !ok || p != "sync/atomic" || len(call.Args) == 0 {
				return true
			}
			un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				return true
			}
			if obj := selectedObject(pkg, un.X); obj != nil {
				atomicObjs[obj] = true
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if obj := selectedObject(pkg, lhs); obj != nil && atomicObjs[obj] {
						pass.Report(pkg, lhs.Pos(), "plain write to %s, which is accessed via sync/atomic elsewhere; every access must go through sync/atomic", obj.Name())
					}
				}
			case *ast.IncDecStmt:
				if obj := selectedObject(pkg, x.X); obj != nil && atomicObjs[obj] {
					pass.Report(pkg, x.Pos(), "plain %s of %s, which is accessed via sync/atomic elsewhere; every access must go through sync/atomic", x.Tok, obj.Name())
				}
			}
			return true
		})
	}
}

// selectedObject resolves x.f or a bare identifier to its object.
func selectedObject(pkg *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return pkg.Info.Uses[x.Sel]
	case *ast.Ident:
		return pkg.Info.Uses[x]
	}
	return nil
}

// checkGoroutines enforces rules 3 and 4 on `go func(...){...}(...)`
// closures: no loop-variable capture, no writes to captured outer
// variables.
func checkGoroutines(pass *ModulePass, pkg *Package) {
	for _, f := range pkg.Files {
		loopVars := collectLoopVars(pkg, f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fl, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoClosure(pass, pkg, fl, loopVars)
			return true
		})
	}
}

// collectLoopVars gathers the objects declared as range key/value
// variables or for-init short declarations in f.
func collectLoopVars(pkg *Package, f *ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	def := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				if x.Key != nil {
					def(x.Key)
				}
				if x.Value != nil {
					def(x.Value)
				}
			}
		case *ast.ForStmt:
			if as, ok := x.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, lhs := range as.Lhs {
					def(lhs)
				}
			}
		}
		return true
	})
	return out
}

func checkGoClosure(pass *ModulePass, pkg *Package, fl *ast.FuncLit, loopVars map[types.Object]bool) {
	capturedFrom := func(obj types.Object) bool {
		return obj != nil && obj.Pos() != token.NoPos &&
			(obj.Pos() < fl.Pos() || obj.Pos() > fl.End())
	}
	reported := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			obj := pkg.Info.Uses[x]
			if loopVars[obj] && capturedFrom(obj) && !reported[obj] {
				reported[obj] = true
				pass.Report(pkg, x.Pos(), "goroutine closure captures loop variable %s; pass it as a call argument so the per-iteration ownership is explicit", obj.Name())
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkCapturedWrite(pass, pkg, fl, lhs, capturedFrom)
			}
		case *ast.IncDecStmt:
			checkCapturedWrite(pass, pkg, fl, x.X, capturedFrom)
		}
		return true
	})
}

// checkCapturedWrite flags a write whose target base is a variable
// captured from outside the goroutine closure: either the variable
// itself or an element of a captured slice/map/array. Writes through
// captured *pointers* (sel.X.field) are the pointee owner's business
// and are left to rule 2 and the race detector.
func checkCapturedWrite(pass *ModulePass, pkg *Package, fl *ast.FuncLit, lhs ast.Expr, capturedFrom func(types.Object) bool) {
	base := ast.Unparen(lhs)
	indexed := false
	for {
		ix, ok := base.(*ast.IndexExpr)
		if !ok {
			break
		}
		indexed = true
		base = ast.Unparen(ix.X)
	}
	id, ok := base.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() || !capturedFrom(v) {
		return
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return // package-level writes are detreach's finding
	}
	if indexed {
		pass.Report(pkg, lhs.Pos(), "goroutine closure writes through captured %s; if each goroutine owns a disjoint index range, suppress with the ownership argument", v.Name())
		return
	}
	pass.Report(pkg, lhs.Pos(), "goroutine closure writes to captured variable %s; return the value over a channel or give each goroutine an owned slot", v.Name())
}

// checkHotPathSends walks the //mpg:hotpath closure (rule 5): a
// channel send anywhere in it blocks the replay inner loop on a
// consumer.
func checkHotPathSends(pass *ModulePass) {
	g := pass.Graph
	var roots []*FuncNode
	for _, n := range g.Funcs {
		if n.HotPath {
			roots = append(roots, n)
		}
	}
	visited := g.Reach(pass.Analyzer.Name, roots, nil)
	for _, n := range g.Funcs {
		if _, ok := visited[n]; !ok {
			continue
		}
		if n.Decl.Body == nil {
			continue
		}
		chain := Chain(visited, n)
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if s, ok := node.(*ast.SendStmt); ok {
				pass.Report(n.Pkg, s.Arrow, "%s: channel send on the hot path blocks on the receiver; buffer the result in an owned slot and publish after the loop", chain)
			}
			return true
		})
	}
}
