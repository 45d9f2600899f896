package analysis

import (
	"go/ast"
	"go/types"
)

// pkgPathOf resolves an identifier used as a selector qualifier to
// the import path of the package it names, via the type checker's
// Uses map (so a local variable shadowing a package name is never
// mistaken for the package).
func (p *Package) pkgPathOf(id *ast.Ident) (string, bool) {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path(), true
		}
	}
	return "", false
}

// callTarget resolves calls of the form pkg.Fn(...) to (import path,
// function name).
func (p *Package) callTarget(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	path, ok := p.pkgPathOf(qual)
	if !ok {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// typeOf returns the checked type of an expression, or nil when the
// checker records none for it (a name being declared, for one).
func (p *Package) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isBuiltin reports whether the call's function is the named builtin.
func (p *Package) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isb := p.Info.Uses[id].(*types.Builtin)
	return isb
}

// namedType unwraps a type to its named form, returning the defining
// package path and type name.
func namedType(t types.Type) (pkgPath, name string, ok bool) {
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", obj.Name(), true
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// isFloat reports whether t is a floating-point basic type (or an
// untyped float constant's type).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// containsNamed reports whether t is, points to, or is a
// slice/array/map of the named type pkg.name (one level of each
// wrapper, applied repeatedly).
func containsNamed(t types.Type, pkg, name string) bool {
	for i := 0; i < 8 && t != nil; i++ {
		if p, n, ok := namedType(t); ok && p == pkg && n == name {
			return true
		}
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			t = u.Underlying()
		default:
			return false
		}
	}
	return false
}

// enclosingFunc returns the innermost function declaration or literal
// body that contains pos, searching the file.
func enclosingFuncBody(f *ast.File, pos ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos.Pos() && pos.End() <= body.End() {
			best = body // keep innermost: Inspect visits outer first
		}
		return true
	})
	return best
}
