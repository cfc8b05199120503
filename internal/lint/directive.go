// //disco: suppression directives — the escape hatch that turns each
// contract check from a hard wall into a reviewed waiver. A directive is
// a comment of the form
//
//	//disco:<name> <reason>
//
// placed on the flagged line or on the line directly above the flagged
// statement. The reason is mandatory: a bare //disco:measured is itself a
// diagnostic, so every waiver carries its justification in the source
// next to the code it excuses. So is a waiver that suppressed nothing in
// its package: once the code it excused changes, it goes.
// Directive names in use:
//
//	//disco:orderinvariant — mergeorder: a parallel task's write whose
//	    merge order provably cannot reach output (an integer tally).
//	//disco:measured — seedrand: wall-clock or unseeded randomness on
//	    a measurement-only path (qps/latency timing) whose values are
//	    excluded from deterministic output.
//	//disco:mutates — snapmutate: a reviewed write to sealed state
//	    (e.g. the defining package's own white-box test).
//	//disco:fixture — surface: an export that only other packages'
//	    tests reference, such as a topology several packages' tests
//	    build on (surface.go).

package lint

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// waivers maps each check that takes a waiver to the name of its
// directive. maporder takes none, and any other //disco: name is a typo
// worth flagging.
var waivers = map[string]string{
	"seedrand":   "measured",
	"snapmutate": "mutates",
	"mergeorder": "orderinvariant",
	"surface":    "fixture",
}

// directive is one parsed //disco: comment.
type directive struct {
	name   string // e.g. "orderinvariant"
	reason string // text after the name; empty is an error
	pos    token.Pos
	used   bool // it suppressed a diagnostic
}

type fileLine struct {
	file string
	line int
}

// directiveTable indexes every //disco: directive of one package by
// file and line.
type directiveTable struct {
	byLine map[fileLine][]int // indices into all
	all    []directive
}

// parseDirectives scans the comments of files for //disco: directives,
// unknown names and missing reasons included: checkDirectives reports
// those.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveTable {
	t := &directiveTable{byLine: make(map[fileLine][]int)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//disco:")
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				at := fileLine{pos.Filename, pos.Line}
				t.byLine[at] = append(t.byLine[at], len(t.all))
				t.all = append(t.all, directive{name: name, reason: strings.TrimSpace(reason), pos: c.Pos()})
			}
		}
	}
	return t
}

// covers reports whether a directive named name sits on line, or on the
// line immediately above it, in file, and marks that directive used. A
// directive with an empty reason does not suppress — the missing reason
// surfaces as its own diagnostic and the underlying finding stays
// visible.
func (t *directiveTable) covers(name, file string, line int) bool {
	for _, l := range [2]int{line, line - 1} {
		for _, i := range t.byLine[fileLine{file, l}] {
			if d := &t.all[i]; d.name == name && d.reason != "" {
				d.used = true
				return true
			}
		}
	}
	return false
}

// checkDirectives reports malformed directives — unknown names and
// missing reasons — and every well-formed one that no covers call
// matched: a stale waiver whose code no longer raises the diagnostic it
// excused. It runs after all four checks, so it sees every use. A
// fixture's staleness is module-wide, so testOnlySurface judges it.
func (p *pass) checkDirectives() {
	known := slices.Sorted(maps.Values(waivers))
	for _, d := range p.directives.all {
		switch {
		case !slices.Contains(known, d.name):
			p.report("directive", d.pos, "unknown //disco: directive %q (known: %s)", d.name, strings.Join(known, ", "))
		case d.reason == "":
			p.report("directive", d.pos, "//disco:%s directive needs a reason: //disco:%s <why this site is exempt>", d.name, d.name)
		case !d.used && d.name != waivers["surface"]:
			p.report("directive", d.pos, "//disco:%s directive suppresses no diagnostic; delete it", d.name)
		}
	}
}
