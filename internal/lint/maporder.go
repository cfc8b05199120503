// maporder enforces that the repo's deterministic packages never range
// over a map. Go randomizes map iteration order, and a figure must be
// byte-identical at any -workers count and across runs; rather than
// prove each loop's order cannot reach output, the contract is that
// deterministic code iterates no map at all.
//
// The check is purely syntactic: every `range` whose operand is
// map-typed, or is a maps.Keys, maps.Values or maps.All iterator, is
// reported. Maps kept for point lookups are walked in key order as
//
//	for _, k := range slices.Sorted(maps.Keys(m))
//
// which ranges over a slice and passes. There is no waiver directive.
// Test files are skipped: the dynamic invariance suites own test
// determinism.

package lint

import (
	"go/ast"
	"go/types"
)

func mapOrder(p *pass) {
	for _, f := range p.libraryFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if what := mapRangeKind(p, rs.X); what != "" {
					p.report("maporder", rs.For,
						"range over %s in deterministic package %s: iteration order is random; range over a slice, or over slices.Sorted(maps.Keys(m))",
						what, p.pkg.Path())
				}
			}
			return true
		})
	}
}

// mapRangeKind reports what randomly-ordered thing x is: "" if none,
// else a description for the diagnostic.
func mapRangeKind(p *pass, x ast.Expr) string {
	if t := p.info.TypeOf(x); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return "map"
		}
	}
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return ""
	}
	if pkg, name := qualified(p, call.Fun); pkg == "maps" {
		switch name {
		case "Keys", "Values", "All":
			return "maps." + name + " iterator"
		}
	}
	return ""
}

// qualified returns the import path and name of a package-qualified
// selector such as rand.Intn, or "", "" if fun is not one.
func qualified(p *pass, fun ast.Expr) (pkg, name string) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
