// Package lint holds the repo's contracts as static checks. Each check
// turns one prose contract from the ROADMAP into code:
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
// The other three accept a //disco: waiver directive (directive.go);
// Analyze reports any waiver that suppressed nothing. The loader
// (load.go) type-checks packages from source with the standard library
// alone. TestContracts runs Analyze over every package of the module and
// its test variants, so tier-1 `go test ./...` checks the contracts.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding: a violation of a check, or a malformed or
// stale //disco: directive (Check "directive").
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Check   string
}

// pass is one package's input to the checks, and the diagnostics they
// report.
type pass struct {
	fset       *token.FileSet
	files      []*ast.File
	pkg        *types.Package
	info       *types.Info
	directives *directiveTable
	diags      []Diagnostic
}

// Analyze runs the four checks over one type-checked package of the
// module whose path is module, then reports malformed directives and
// every directive that suppressed no diagnostic. The diagnostics come
// back sorted by position.
func Analyze(module string, p *Package) []Diagnostic {
	ps := &pass{fset: p.Fset, files: p.Files, pkg: p.Pkg, info: p.Info, directives: parseDirectives(p.Fset, p.Files)}
	if deterministic(module, p.Path) {
		mapOrder(ps)
		seedRand(ps)
	}
	snapMutate(ps)
	mergeOrder(ps)
	ps.checkDirectives()
	slices.SortStableFunc(ps.diags, func(a, b Diagnostic) int { return cmp.Compare(a.Pos, b.Pos) })
	return ps.diags
}

// deterministic reports whether the package at path is held to the
// bit-identical-output contract: every package of the module except the
// lint suite itself.
func deterministic(module, path string) bool {
	return strings.HasPrefix(path+"/", module+"/") && !strings.HasPrefix(path+"/", module+"/internal/lint/")
}

// report records a diagnostic of check at pos, unless the check takes a
// waiver and a //disco: directive of that name covers pos's line.
func (p *pass) report(check string, pos token.Pos, format string, args ...any) {
	if waiver := waivers[check]; waiver != "" {
		at := p.fset.Position(pos)
		if p.directives.covers(waiver, at.Filename, at.Line) {
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Check: check})
}

// libraryFiles returns the package's files that are not _test.go files.
// maporder, seedrand and mergeorder check library determinism only:
// tests assert on sorted or order-insensitive views, and annotating
// every assertion loop would drown the signal.
func (p *pass) libraryFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.files {
		if !strings.HasSuffix(p.fset.Position(f.Package).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// pathSuffix returns the last element of an import path.
func pathSuffix(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}
