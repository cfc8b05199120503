package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strings"
	"testing"
)

// directiveSrc ends with a waiver whose name was retired along with its
// lint. It is spelled by concatenation so that no source line of the repo
// carries the retired directive.
const directiveSrc = `package p

func f(m map[int]int) {
	//disco:orderinvariant pure counting
	for range m {
	}
	for range m { //disco:measured qps aside
	}
	//disco:orderinvariant
	for range m {
	}
	//disco:oderinvariant typo goes unnoticed without checkDirectives
	for range m {
	}
}

func g() {
	//disco:` + `retained a refcount waiver whose lint is gone
}
`

func parseDirectiveTable(t *testing.T) *pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &pass{fset: fset, files: []*ast.File{f}, directives: parseDirectives(fset, []*ast.File{f})}
}

// directiveLines returns the lines of p's diagnostics whose message
// contains substr.
func directiveLines(p *pass, substr string) []int {
	var lines []int
	for _, d := range p.diags {
		if strings.Contains(d.Message, substr) {
			lines = append(lines, p.fset.Position(d.Pos).Line)
		}
	}
	return lines
}

func TestDirectiveCovers(t *testing.T) {
	tab := parseDirectiveTable(t).directives
	for _, tc := range []struct {
		name string
		line int
		want bool
	}{
		{"orderinvariant", 5, true},   // line above the loop
		{"orderinvariant", 4, true},   // the directive's own line
		{"measured", 7, true},         // same line
		{"orderinvariant", 10, false}, // reason missing: must not suppress
		{"measured", 5, false},        // wrong name
		{"orderinvariant", 15, false}, // no directive anywhere near
	} {
		if got := tab.covers(tc.name, "p.go", tc.line); got != tc.want {
			t.Errorf("covers(%q, %d) = %v, want %v", tc.name, tc.line, got, tc.want)
		}
	}
}

// TestDirectiveValidate: with every well-formed directive used, what
// checkDirectives reports is the malformed ones: the missing reason and
// the two unknown names, each listing exactly the known directives.
func TestDirectiveValidate(t *testing.T) {
	p := parseDirectiveTable(t)
	p.directives.covers("orderinvariant", "p.go", 5)
	p.directives.covers("measured", "p.go", 7)
	p.checkDirectives()
	if len(p.diags) != 3 {
		t.Fatalf("checkDirectives produced %d diagnostics, want 3: %v", len(p.diags), p.diags)
	}
	if msg := p.diags[0].Message; !strings.Contains(msg, "needs a reason") {
		t.Errorf("first diagnostic = %q, want missing-reason", msg)
	}
	for i, name := range []string{"oderinvariant", "retained"} {
		d := p.diags[1+i]
		if d.Check != "directive" || !strings.Contains(d.Message, `unknown //disco: directive "`+name+`"`) {
			t.Errorf("diagnostic %d = %q (%s), want unknown-name %q", 1+i, d.Message, d.Check, name)
		}
		// The known list must name exactly waivers' directives, so it
		// cannot go stale when a directive is added or removed.
		_, list, _ := strings.Cut(d.Message, "(known: ")
		named := strings.Split(strings.TrimSuffix(list, ")"), ", ")
		slices.Sort(named)
		if want := slices.Sorted(maps.Values(waivers)); !slices.Equal(named, want) {
			t.Errorf("diagnostic %d names known directives %q, want %q", 1+i, named, want)
		}
	}
}

// TestDirectiveUnused: a well-formed directive that no covers call
// matched is stale; malformed ones are reported as malformed, not as
// stale.
func TestDirectiveUnused(t *testing.T) {
	p := parseDirectiveTable(t)
	p.directives.covers("orderinvariant", "p.go", 5)
	p.checkDirectives()
	if got := directiveLines(p, "suppresses no diagnostic"); !slices.Equal(got, []int{7}) {
		t.Errorf("stale directives at lines %v, want [7] (the measured waiver nothing matched)", got)
	}
	if len(p.diags) != 4 {
		t.Errorf("checkDirectives produced %d diagnostics, want the stale one and 3 malformed: %v", len(p.diags), p.diags)
	}
}
