// //disco: suppression directives — the escape hatch that turns each
// contract lint from a hard wall into a reviewed waiver. A directive is
// a comment of the form
//
//	//disco:<name> <reason>
//
// placed on the flagged line or on the line directly above the flagged
// statement. The reason is mandatory: a bare //disco:measured is itself a
// diagnostic, so every waiver carries its justification in the source
// next to the code it excuses. So is a waiver that suppressed nothing in
// its package (see Unused): once the code it excused changes, it goes.
// Directive names in use:
//
//	//disco:orderinvariant — mergeorder: a parallel task's write whose
//	    merge order provably cannot reach output (an integer tally).
//	//disco:measured — seedrand: wall-clock or unseeded randomness on
//	    a measurement-only path (qps/latency timing) whose values are
//	    excluded from deterministic output.
//	//disco:mutates — snapmutate: a reviewed write to sealed state
//	    (e.g. the defining package's own white-box test).
package analysis

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// DirectivePrefix is the comment prefix all suppression directives share.
const DirectivePrefix = "//disco:"

// Directive is one parsed //disco: comment.
type Directive struct {
	Name   string // e.g. "orderinvariant"
	Reason string // text after the name; empty is an error
	Pos    token.Pos
	Line   int
	File   string
}

// DirectiveTable indexes every //disco: directive of one package by
// file and line for O(1) suppression checks, and remembers which
// directives suppressed a diagnostic.
type DirectiveTable struct {
	// byFileLine maps file name -> line -> indices into all of the
	// directives on that line.
	byFileLine map[string]map[int][]int
	all        []Directive
	used       []bool
}

// ParseDirectives scans the comments of files for //disco: directives.
// Non-directive comments and //disco:generate-style unknown names are
// kept too — validation (unknown name, missing reason) is the driver's
// job, not the parser's.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *DirectiveTable {
	t := &DirectiveTable{byFileLine: make(map[string]map[int][]int)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, DirectivePrefix)
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				d := Directive{
					Name:   name,
					Reason: strings.TrimSpace(reason),
					Pos:    c.Pos(),
					Line:   pos.Line,
					File:   pos.Filename,
				}
				lines := t.byFileLine[d.File]
				if lines == nil {
					lines = make(map[int][]int)
					t.byFileLine[d.File] = lines
				}
				lines[d.Line] = append(lines[d.Line], len(t.all))
				t.all = append(t.all, d)
				t.used = append(t.used, false)
			}
		}
	}
	return t
}

// Covers reports whether a directive named name sits on line, or on the
// line immediately above it, in file, and marks that directive used. A
// directive with an empty reason does not suppress — the missing reason
// surfaces as its own diagnostic (see Validate) and the underlying
// finding stays visible.
func (t *DirectiveTable) Covers(name, file string, line int) bool {
	lines := t.byFileLine[file]
	if lines == nil {
		return false
	}
	for _, cand := range [2]int{line, line - 1} {
		for _, i := range lines[cand] {
			if d := t.all[i]; d.Name == name && d.Reason != "" {
				t.used[i] = true
				return true
			}
		}
	}
	return false
}

// KnownDirectives is the closed set of directive names the suite
// accepts; anything else under //disco: is a typo worth flagging.
var KnownDirectives = map[string]bool{
	"orderinvariant": true,
	"measured":       true,
	"mutates":        true,
}

// Validate reports malformed directives: unknown names and missing
// reasons. The driver runs it once per package alongside the analyzers
// so a misspelled waiver can't silently disable nothing.
func (t *DirectiveTable) Validate(report func(pos token.Pos, format string, args ...any)) {
	for _, d := range t.all {
		if !KnownDirectives[d.Name] {
			report(d.Pos, "unknown //disco: directive %q (known: %s)", d.Name, strings.Join(slices.Sorted(maps.Keys(KnownDirectives)), ", "))
			continue
		}
		if d.Reason == "" {
			report(d.Pos, "//disco:%s directive needs a reason: //disco:%s <why this site is exempt>", d.Name, d.Name)
		}
	}
}

// Unused reports every well-formed directive that no Covers call has
// matched: a stale waiver whose code no longer raises the diagnostic it
// excused. Only a driver that has run every analyzer over the package may
// call it; a single-analyzer harness would see the other analyzers'
// waivers as unused.
func (t *DirectiveTable) Unused(report func(pos token.Pos, format string, args ...any)) {
	for i, d := range t.all {
		if !t.used[i] && KnownDirectives[d.Name] && d.Reason != "" {
			report(d.Pos, "//disco:%s directive suppresses no diagnostic; delete it", d.Name)
		}
	}
}
