package analysis

import (
	"go/ast"
)

const distPkg = "mpgraph/internal/dist"

// RNGPurityAnalyzer enforces the ownership discipline that makes the
// random streams sample-invariant (§4.1): every dist.RNG belongs to
// exactly one simulated component and is obtained through the
// approved constructors (NewRNG, ForkNamed, or the in-place
// Reseed / ForkNamedInto used by pooled replay state). Concretely:
//
//   - an RNG-typed variable must not be captured by a goroutine
//     closure — concurrent draws interleave nondeterministically;
//   - dist.RNG values must not be copied (assignment, call argument,
//     return, composite-literal element, or range value variable):
//     a copy silently duplicates the stream, and the two halves
//     diverge from the schedule the seed derivation promised;
//   - a dist.RNG composite literal outside the dist package conjures
//     an unseeded generator, bypassing the constructors;
//   - an existing *dist.RNG must not be stored into a struct field
//     or element (sharing one stream between two owners); fields are
//     populated from constructor calls or by taking the address of
//     owned backing storage.
var RNGPurityAnalyzer = &Analyzer{
	Name: "rngpurity",
	Doc:  "enforces single-owner, constructor-derived dist.RNG usage (no copies, no goroutine capture, no shared stores)",
	Scope: []string{
		"mpgraph/internal",
		"mpgraph/cmd",
		"mpgraph/examples",
	},
	Exempt: []string{
		distPkg, // the defining package manages its own state
	},
	Run: runRNGPurity,
}

func isRNGValue(pass *Pass, e ast.Expr) bool {
	p, n, ok := namedType(pass.Pkg.typeOf(e))
	return ok && p == distPkg && n == "RNG"
}

// isRNGCopy reports whether e is an RNG value being copied. A
// composite literal is not a copy of an existing stream — it gets its
// own (sharper) construction diagnostic instead of two reports.
func isRNGCopy(pass *Pass, e ast.Expr) bool {
	if _, ok := e.(*ast.CompositeLit); ok {
		return false
	}
	return isRNGValue(pass, e)
}

func runRNGPurity(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				checkGoCapture(pass, x)
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					if isRNGCopy(pass, rhs) {
						pass.Report(rhs.Pos(), "dist.RNG copied by value: a copy duplicates the random stream; keep a pointer or Reseed a dedicated generator")
					}
				}
				checkSharedStore(pass, x)
			case *ast.ValueSpec:
				for _, v := range x.Values {
					if isRNGCopy(pass, v) {
						pass.Report(v.Pos(), "dist.RNG copied by value: a copy duplicates the random stream; keep a pointer or Reseed a dedicated generator")
					}
				}
			case *ast.CallExpr:
				for _, arg := range x.Args {
					if isRNGCopy(pass, arg) {
						pass.Report(arg.Pos(), "dist.RNG passed by value: the callee draws from a silent duplicate of the caller's stream; pass *dist.RNG")
					}
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					if isRNGCopy(pass, r) {
						pass.Report(r.Pos(), "dist.RNG returned by value: the caller receives a duplicate stream; return *dist.RNG")
					}
				}
			case *ast.CompositeLit:
				if isRNGValue(pass, x) {
					pass.Report(x.Pos(), "dist.RNG composite literal bypasses the approved constructors (NewRNG/ForkNamed/Reseed/ForkNamedInto)")
					return true
				}
				for _, el := range x.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if isRNGValue(pass, v) {
						pass.Report(v.Pos(), "dist.RNG copied by value into a composite literal; store a pointer or backing array instead")
					}
				}
			case *ast.RangeStmt:
				if v, ok := x.Value.(*ast.Ident); ok && v.Name != "_" && isRNGValue(pass, x.Value) {
					pass.Report(x.Value.Pos(), "range value variable copies dist.RNG elements; iterate by index and take addresses")
				}
			}
			return true
		})
	}
}

// checkGoCapture flags goroutine function literals that capture an
// RNG-typed variable declared outside the literal.
func checkGoCapture(pass *Pass, g *ast.GoStmt) {
	lits := []*ast.FuncLit{}
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		lits = append(lits, fl)
	}
	for _, arg := range g.Call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			lits = append(lits, fl)
		}
	}
	for _, fl := range lits {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pass.Pkg.Info.Uses[id]
			if !ok || obj.Pos() == 0 {
				return true
			}
			// Declared inside the literal: not a capture.
			if fl.Pos() <= obj.Pos() && obj.Pos() < fl.End() {
				return true
			}
			if containsNamed(obj.Type(), distPkg, "RNG") {
				pass.Report(id.Pos(), "RNG %q captured by a goroutine closure: concurrent draws interleave nondeterministically; fork a per-goroutine generator from a deterministic seed instead", id.Name)
			}
			return true
		})
	}
}

// checkSharedStore flags assignments that store an already-owned
// *dist.RNG into a field or element, which would share one stream
// between two owners. Constructor-call results and fresh addresses
// (&backing[i]) remain legal.
func checkSharedStore(pass *Pass, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break // multi-value call assignment: nothing RNG-shaped to check
		}
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
		default:
			continue // plain local aliasing is sequential and visible
		}
		rhs := as.Rhs[i]
		if !containsNamed(pass.Pkg.typeOf(rhs), distPkg, "RNG") {
			continue
		}
		switch rhs.(type) {
		case *ast.CallExpr:
			// NewRNG/ForkNamed result: a fresh stream.
		case *ast.UnaryExpr:
			// &owned-backing: ownership transfer, not sharing.
		case *ast.CompositeLit:
			// Fresh backing storage (e.g. []*dist.RNG{...} handled
			// element-wise above).
		default:
			pass.Report(rhs.Pos(), "storing an existing RNG reference into a field/element shares one stream between owners; fork a dedicated generator (ForkNamed/ForkNamedInto)")
		}
	}
}
