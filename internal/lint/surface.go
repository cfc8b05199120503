// surface holds the module's library packages to "no test-only surface":
// every exported func, method, type, var and const under internal/
// (internal/lint aside) has a referrer in non-test code somewhere in the
// module — the root package, cmd/*, examples/*, the benchmark or another
// library package. An export that only tests reach is code no experiment
// runs: delete it, or move it into the _test.go file of the package whose
// tests use it. A cross-package test fixture (a topology constructor
// several packages' tests build on) stays exported and carries
//
//	//disco:fixture <reason>
//
// on its declaration line or the line above. A fixture on an export that
// does have a non-test referrer is stale, and reported like any unused
// waiver.
//
// Methods whose name an interface of the module or of a package it
// imports declares are exempt (they may be reached only dynamically), as
// are String and Error.

package lint

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// testOnlySurface reports the exported identifiers of the module's
// library packages that no non-test code references. libs are the
// subject packages' non-test variants; callers are every non-test
// package that may reference them, libs included; imported are the
// packages whose interfaces exempt a method name.
func testOnlySurface(libs, callers []*Package, imported []*types.Package) []Diagnostic {
	// ifaces maps a method name to the interfaces that declare it.
	ifaces := make(map[string][]*types.Interface)
	for _, pkg := range imported {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
	}
	exempt := func(fn *types.Func) bool {
		if fn.Name() == "String" || fn.Name() == "Error" {
			return true
		}
		recv := recvNamed(fn)
		return slices.ContainsFunc(ifaces[fn.Name()], func(it *types.Interface) bool {
			return types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
		})
	}

	// own maps each subject to the source ranges that do not count as
	// referrers: its own declaration, and for a type the declarations of
	// its methods (which may come first).
	own := make(map[types.Object][][2]token.Pos)
	type subject struct {
		obj  types.Object
		pass *pass
	}
	var subjects []subject
	passes := make([]*pass, len(libs))
	for i, p := range libs {
		ps := &pass{fset: p.Fset, files: p.Files, pkg: p.Pkg, info: p.Info, directives: parseDirectives(p.Fset, p.Files)}
		passes[i] = ps
		declare := func(obj types.Object, span ast.Node) {
			if subjectOf(obj, exempt) {
				own[obj] = append(own[obj], [2]token.Pos{span.Pos(), span.End()})
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					declare(fn, d)
					if d.Recv != nil {
						declare(recvNamed(fn).Obj(), d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(p.Info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(p.Info.Defs[id], s)
							}
						}
					}
				}
			}
		}
		for _, name := range p.Pkg.Scope().Names() {
			obj := p.Pkg.Scope().Lookup(name)
			if _, ok := own[obj]; ok {
				subjects = append(subjects, subject{obj, ps})
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && !tn.IsAlias() {
					for m := range named.Methods() {
						if _, ok := own[m]; ok {
							subjects = append(subjects, subject{m, ps})
						}
					}
				}
			}
		}
	}

	referenced := make(map[types.Object]bool)
	for _, p := range callers {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			spans, ok := own[obj]
			if ok && !referenced[obj] && !slices.ContainsFunc(spans, func(s [2]token.Pos) bool { return s[0] <= id.Pos() && id.Pos() < s[1] }) {
				referenced[obj] = true
			}
		}
	}

	for _, s := range subjects {
		if !referenced[s.obj] {
			s.pass.report("surface", s.obj.Pos(), "exported %s %s has no non-test referrer in the module; delete it, move it into a _test.go file, or mark a cross-package test fixture //disco:fixture <reason>", kind(s.obj), objName(s.obj))
		}
	}
	var diags []Diagnostic
	for _, ps := range passes {
		for _, d := range ps.directives.all {
			if d.name == waivers["surface"] && d.reason != "" && !d.used {
				ps.report("directive", d.pos, "//disco:%s directive suppresses no diagnostic; delete it", d.name)
			}
		}
		slices.SortStableFunc(ps.diags, func(a, b Diagnostic) int { return cmp.Compare(a.Pos, b.Pos) })
		diags = append(diags, ps.diags...)
	}
	return diags
}

// subjectOf reports whether obj is held to the contract: an exported
// package-level func, type, var or const, or an exported method no
// interface declares.
func subjectOf(obj types.Object, exempt func(*types.Func) bool) bool {
	if obj == nil || !obj.Exported() {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return !exempt(fn)
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// recvNamed returns the named type a method's receiver denotes.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Signature().Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

func kind(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Signature().Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// objName spells a method as Type.Method.
func objName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return recvNamed(fn).Obj().Name() + "." + fn.Name()
	}
	return obj.Name()
}
