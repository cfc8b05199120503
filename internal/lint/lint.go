// Package lint assembles the repo's contract-enforcement analyzer
// suite. Each analyzer turns one prose contract from the ROADMAP into a
// static check:
//
//	maporder   — bit-identical output: no range over a map (or a
//	             maps.Keys/Values/All iterator) in deterministic
//	             packages; no waiver
//	seedrand   — bit-identical output: all entropy flows from explicit
//	             seeds; wall clock only on //disco:measured paths
//	snapmutate — snapshot immutability: what Fork() shares is never
//	             written outside its defining package
//	mergeorder — task-ordered merges: pool closures write only
//	             task-indexed storage
//
// The other three accept a //disco: waiver directive
// (internal/lint/analysis); Analyze reports any waiver that suppressed
// nothing. TestContracts runs Analyze over every package of the module
// and its test variants, so tier-1 `go test ./...` checks the contracts.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"disco/internal/lint/analysis"
	"disco/internal/lint/maporder"
	"disco/internal/lint/mergeorder"
	"disco/internal/lint/seedrand"
	"disco/internal/lint/snapmutate"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		seedrand.Analyzer,
		snapmutate.Analyzer,
		mergeorder.Analyzer,
	}
}

// Analyze runs the suite plus directive validation over one
// type-checked package and returns the diagnostics sorted by position.
// Besides malformed directives it reports every directive that
// suppressed no diagnostic of the suite.
func Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	directives := analysis.ParseDirectives(fset, files)
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := analysis.NewPass(a, fset, files, pkg, info, directives)
		if err := a.Run(pass); err != nil {
			diags = append(diags, analysis.Diagnostic{
				Pos:      files[0].Package,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
				Analyzer: a.Name,
			})
			continue
		}
		diags = append(diags, pass.Diagnostics()...)
	}
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
			Analyzer: "directive",
		})
	}
	directives.Validate(report)
	directives.Unused(report)
	slices.SortStableFunc(diags, func(a, b analysis.Diagnostic) int { return cmp.Compare(a.Pos, b.Pos) })
	return diags
}
