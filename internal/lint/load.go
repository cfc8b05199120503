// The loader type-checks a module's packages from source with no tooling
// dependencies beyond the standard library. It maps the module path
// named in Root/go.mod, and every path below it, to the directories
// under Root; any other path is a standard library package, type-checked
// from $GOROOT/src. go/build picks every package's files, honouring
// build constraints.

package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one type-checked package: the parsed files of the package
// itself plus everything Analyze needs.
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Fset  *token.FileSet
}

// Loader loads and memoizes the packages of one module under one file
// set.
type Loader struct {
	Root   string // the directory holding go.mod
	Module string // the module path go.mod declares
	Fset   *token.FileSet

	pkgs    map[string]*Package
	loading map[string]bool
	// stdlib is the fallback importer for GOROOT packages. The "source"
	// importer type-checks from $GOROOT/src, so the loader works with
	// no compiled export data and no network at all. It re-reads a
	// package's directory on every call, so std memoizes its results.
	stdlib types.Importer
	std    map[string]*types.Package
}

// NewModuleLoader returns a Loader rooted at the module whose go.mod
// sits in root.
func NewModuleLoader(root string) (*Loader, error) {
	gomod := filepath.Join(root, "go.mod")
	data, err := os.ReadFile(gomod)
	if err != nil {
		return nil, err
	}
	for line := range strings.Lines(string(data)) {
		if module, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			fset := token.NewFileSet()
			return &Loader{
				Root:    root,
				Module:  strings.Trim(strings.TrimSpace(module), `"`),
				Fset:    fset,
				pkgs:    make(map[string]*Package),
				loading: make(map[string]bool),
				stdlib:  importer.ForCompiler(fset, "source", nil),
				std:     make(map[string]*types.Package),
			}, nil
		}
	}
	return nil, fmt.Errorf("%s: no module directive", gomod)
}

// dir returns the source directory of the package at import path path,
// and false if path lies outside the module (a standard library path).
func (l *Loader) dir(path string) (string, bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load parses and type-checks the package at import path path,
// resolving its imports recursively. It checks each path once: a later
// Load or Import of the same path returns the same package.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dir(path)
	if !ok {
		return nil, fmt.Errorf("load %s: not under %s", path, l.Root)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %v", path, err)
	}
	p, err := l.Check(path, dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// Check parses the named files of dir and type-checks them as the
// package at import path path, resolving imports through the loader. It
// does not memoize the result, so it also checks a package's test
// variants: its files plus its in-package tests, or its external test
// package.
func (l *Loader) Check(path, dir string, names []string) (*Package, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("load %s: no .go files in %s", path, dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %v", path, err)
	}
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info, Fset: l.Fset}, nil
}

// Import implements types.Importer: the module's packages first, then
// the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.std[path]; ok {
		return pkg, nil
	}
	if _, ok := l.dir(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	// Standard library: verify it really is under GOROOT before
	// delegating, so a typoed path fails with a clear message.
	if bp, err := build.Default.Import(path, "", build.FindOnly); err != nil || !bp.Goroot {
		return nil, fmt.Errorf("import %q: not under %s and not in GOROOT", path, l.Root)
	}
	pkg, err := l.stdlib.Import(path)
	if err != nil {
		return nil, err
	}
	l.std[path] = pkg
	return pkg, nil
}
