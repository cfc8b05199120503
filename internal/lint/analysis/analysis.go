// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis: just enough framework to write the
// repo's contract lints (internal/lint) against the standard library
// alone. The API deliberately mirrors x/tools — Analyzer, Pass,
// Diagnostic, Reportf — so the analyzers can migrate to the real
// framework wholesale if the dependency ever becomes available. The
// package loader is internal/lint/load; lint.Analyze runs the suite
// over one package, and internal/lint/analysistest one analyzer over
// testdata.
//
// What this clone intentionally drops: facts (no cross-package
// analysis), analyzer dependencies / ResultOf (each analyzer of the
// suite is independent), and suggested fixes. What it adds over the
// original: first-class //disco: suppression directives (directive.go)
// — every Pass filters its own reports through the directive table, so
// an annotated line is never reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags
	// (lowercase identifier, e.g. "maporder").
	Name string

	// Doc is the analyzer's documentation: first line is a summary,
	// the rest elaborates the contract it enforces.
	Doc string

	// Directive, if non-empty, names the //disco: directive (without
	// the prefix) that suppresses this analyzer's diagnostics on the
	// annotated line, e.g. "orderinvariant" for //disco:orderinvariant.
	Directive string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass holds one package's worth of input to an Analyzer.Run and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// directives is the per-file //disco: directive table, shared by
	// every analyzer running over the same package.
	directives *DirectiveTable

	diagnostics []Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// NewPass assembles a Pass for one package. directives may be nil (no
// suppression).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, directives *DirectiveTable) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, directives: directives}
}

// Reportf reports a diagnostic at pos unless a matching //disco:
// directive suppresses it on that line (or the line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// suppressed reports whether a directive accepted by the analyzer sits
// on the diagnostic's line or the line immediately above it (the
// conventional "annotate the statement" position).
func (p *Pass) suppressed(pos token.Pos) bool {
	if p.directives == nil || p.Analyzer.Directive == "" {
		return false
	}
	position := p.Fset.Position(pos)
	return p.directives.Covers(p.Analyzer.Directive, position.Filename, position.Line)
}

// Diagnostics returns the collected reports in source order of
// appearance (the order Run reported them).
func (p *Pass) Diagnostics() []Diagnostic { return p.diagnostics }

// IsTestFile reports whether the file containing pos is a _test.go
// file. Analyzers whose contract targets library determinism (maporder,
// seedrand, mergeorder) skip test files: tests assert on sorted or
// order-insensitive views and annotating every assertion loop would
// drown the signal.
func (p *Pass) IsTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Package).Filename
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}
