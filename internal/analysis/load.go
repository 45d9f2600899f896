package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded package of the module under analysis,
// type-checked against the real standard library; a type error is a
// load error, so every expression an analyzer sees carries its type.
type Package struct {
	ImportPath string
	Dir        string // module-relative, slash-separated
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader resolves and type-checks module packages from source. One
// Loader shares a FileSet and a package cache across all Load calls,
// so a package imported by several analyzed packages is checked once.
type Loader struct {
	// Root is the absolute path of the module root (the directory
	// holding go.mod).
	Root string
	// ModulePath is the module's import path from go.mod.
	ModulePath string

	fset *token.FileSet
	pkgs map[string]*Package // by import path; nil while loading (cycle guard)
}

// stdImporter type-checks every import from outside the module (the
// standard library) from source. It is built once per process and
// shared by every Loader, because checking the standard library
// dominates load time. Its positions belong to its own FileSet, and
// analyzers only report at module syntax, so no diagnostic points
// into it. The source importer is not safe for concurrent use; stdMu
// serializes it. It re-resolves a package's directory with go/build
// before consulting its own cache, so stdPkgs keeps every package it
// returned by import path.
var (
	stdMu       sync.Mutex
	stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)
	stdPkgs     = map[string]*types.Package{}
)

// NewLoader locates the enclosing module starting from dir (walking
// up to the filesystem root) and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for d := abs; ; d = filepath.Dir(d) {
		mod := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(mod); err == nil {
			mp := modulePath(string(data))
			if mp == "" {
				return nil, fmt.Errorf("analysis: no module line in %s", mod)
			}
			return &Loader{
				Root:       d,
				ModulePath: mp,
				fset:       token.NewFileSet(),
				pkgs:       make(map[string]*Package),
			}, nil
		}
		if filepath.Dir(d) == d {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Fset exposes the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load loads every package of the module: each directory under the
// root that holds a non-test Go file, skipping testdata, vendor, bin
// and hidden or underscore-prefixed directories. The result is sorted
// by import path.
func (l *Loader) Load() ([]*Package, error) {
	var out []*Package
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "bin") {
			return filepath.SkipDir
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(l.Root, p)
		if err != nil {
			return err
		}
		ip := l.ModulePath
		if rel != "." {
			ip = path.Join(l.ModulePath, filepath.ToSlash(rel))
		}
		pkg, err := l.loadPackage(ip)
		if err != nil {
			return err
		}
		out = append(out, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test Go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if analyzableFile(e) {
			return true
		}
	}
	return false
}

func analyzableFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

// loadPackage parses and type-checks one module package by import
// path, caching the result. Go forbids import cycles, so meeting a
// package that is still loading is an error.
func (l *Loader) loadPackage(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil // cycle guard
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if !analyzableFile(e) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		displayName := path.Join(rel, name)
		f, err := parser.ParseFile(l.fset, displayName, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", displayName, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := l.check(importPath, rel, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// CheckSource type-checks a single in-memory file as a package with
// the given import path, resolving module imports against the real
// module source. It exists for fixture tests that embed snippets. The
// checked package is registered in the loader's cache, so a later
// CheckSource on the same loader can import it — which is how the
// cross-package call-graph fixtures are assembled.
func (l *Loader) CheckSource(importPath, filename, src string) (*Package, error) {
	f, err := parser.ParseFile(l.fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(importPath, path.Dir(filename), []*ast.File{f})
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// check type-checks the parsed files strictly: the first type error
// is returned as a load error naming its file:line.
func (l *Loader) check(importPath, rel string, files []*ast.File) (*Package, error) {
	conf := types.Config{Importer: (*moduleImporter)(l)}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        rel,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// moduleImporter resolves module imports from source through the
// Loader and every other import through the shared stdImporter.
type moduleImporter Loader

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	l := (*Loader)(m)
	if p == l.ModulePath || strings.HasPrefix(p, l.ModulePath+"/") {
		pkg, err := l.loadPackage(p)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	if pkg, ok := stdPkgs[p]; ok {
		return pkg, nil
	}
	pkg, err := stdImporter.Import(p)
	if err == nil {
		stdPkgs[p] = pkg
	}
	return pkg, err
}
