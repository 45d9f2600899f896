package analysis

import (
	"go/ast"
)

// FloateqAnalyzer forbids exact floating-point comparisons (==, !=,
// >=) in the deterministic packages outside the two approved kernel
// files. The engines' equality guarantees are *byte* guarantees
// produced by executing identical operation sequences — scattering ad
// hoc exact comparisons invites code that is correct only until an
// operand is computed by a different-but-equivalent expression.
// Ordered merges (>, <) are the engine's bread and butter and stay
// legal; >= is forbidden because its equality half silently changes
// winner-selection (and therefore attribution/critical-path argmax)
// between "first wins" and "last wins".
var FloateqAnalyzer = &Analyzer{
	Name:  "floateq",
	Doc:   "forbids ==, != and >= on floating-point values outside the approved compute kernels",
	Scope: deterministicScope,
	Run:   runFloateq,
}

// floateqApprovedFiles are the shared propagation kernels where exact
// FP comparison is the point (both engines must take bitwise-equal
// branches).
var floateqApprovedFiles = map[string]bool{
	"internal/core/compute.go": true,
	"internal/core/eq.go":      true,
}

func runFloateq(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		name := pass.Pkg.Fset.Position(f.Pos()).Filename
		if floateqApprovedFiles[name] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			var op string
			switch be.Op.String() {
			case "==", "!=", ">=":
				op = be.Op.String()
			default:
				return true
			}
			xt, yt := pass.Pkg.typeOf(be.X), pass.Pkg.typeOf(be.Y)
			if !isFloat(xt) && !isFloat(yt) {
				return true
			}
			if isConstExpr(pass, be.X) && isConstExpr(pass, be.Y) {
				return true // compile-time constant comparison
			}
			// x != x is the portable NaN test; leave it alone.
			if ix, ok := be.X.(*ast.Ident); ok {
				if iy, ok := be.Y.(*ast.Ident); ok && ix.Name == iy.Name {
					return true
				}
			}
			pass.Report(be.OpPos, "exact floating-point comparison (%s) outside the approved kernels; compare via the shared kernels, use an epsilon, or suppress with justification", op)
			return true
		})
	}
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}
