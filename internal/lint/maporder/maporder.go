// Package maporder enforces that the repo's deterministic packages
// never range over a map. Go randomizes map iteration order, and a
// figure must be byte-identical at any -workers count and across runs;
// rather than prove each loop's order cannot reach output, the contract
// is that deterministic code iterates no map at all.
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
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"disco/internal/lint/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags every range over a map, or over a maps.Keys/Values/All iterator, in deterministic packages",
	Run:  run,
}

// deterministicPkgs lists, by final import-path segment, the packages
// whose output feeds goldens or worker-invariance checks — which in
// this repo is every library and command package except the lint suite
// itself. Matching by last segment keeps the analyzer testable against
// small testdata packages ("eval") while covering the real tree
// ("disco/internal/eval").
var deterministicPkgs = map[string]bool{
	"addr": true, "bits": true, "core": true, "dynamics": true,
	"estimate": true, "eval": true, "forward": true, "graph": true,
	"landmark": true, "metrics": true, "names": true, "overlay": true,
	"parallel": true, "pathtree": true, "pathvector": true, "resolve": true,
	"s4": true, "serve": true, "sim": true, "sloppy": true,
	"snapshot": true, "spr": true, "static": true, "topology": true,
	"tzk": true, "vicinity": true, "vrr": true,
	"discosim": true, "topogen": true,
}

// Deterministic reports whether the package at path is held to the
// bit-identical-output contract.
func Deterministic(path string) bool {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return deterministicPkgs[path]
}

func run(pass *analysis.Pass) error {
	if !Deterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if what := mapRangeKind(pass, rs.X); what != "" {
					pass.Reportf(rs.For,
						"range over %s in deterministic package %s: iteration order is random; range over a slice, or over slices.Sorted(maps.Keys(m))",
						what, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

// mapRangeKind reports what randomly-ordered thing x is: "" if none,
// else a description for the diagnostic.
func mapRangeKind(pass *analysis.Pass, x ast.Expr) string {
	if t := pass.TypesInfo.TypeOf(x); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return "map"
		}
	}
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "maps" {
		switch sel.Sel.Name {
		case "Keys", "Values", "All":
			return "maps." + sel.Sel.Name + " iterator"
		}
	}
	return ""
}
