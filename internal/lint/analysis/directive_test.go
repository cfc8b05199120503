package analysis

import (
	"fmt"
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
	//disco:oderinvariant typo goes unnoticed without Validate
	for range m {
	}
}

func g() {
	` + DirectivePrefix + `retained a refcount waiver whose lint is gone
}
`

func parseDirectiveTable(t *testing.T) (*token.FileSet, *DirectiveTable) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, ParseDirectives(fset, []*ast.File{f})
}

func TestDirectiveCovers(t *testing.T) {
	_, tab := parseDirectiveTable(t)
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
		if got := tab.Covers(tc.name, "p.go", tc.line); got != tc.want {
			t.Errorf("Covers(%q, %d) = %v, want %v", tc.name, tc.line, got, tc.want)
		}
	}
}

func TestDirectiveValidate(t *testing.T) {
	_, tab := parseDirectiveTable(t)
	var msgs []string
	tab.Validate(func(pos token.Pos, format string, args ...any) {
		msgs = append(msgs, fmt.Sprintf(format, args...))
	})
	if len(msgs) != 3 {
		t.Fatalf("Validate produced %d diagnostics, want 3: %v", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "needs a reason") {
		t.Errorf("first diagnostic = %q, want missing-reason", msgs[0])
	}
	for i, name := range []string{"oderinvariant", "retained"} {
		msg := msgs[1+i]
		if !strings.Contains(msg, fmt.Sprintf("unknown //disco: directive %q", name)) {
			t.Errorf("diagnostic %d = %q, want unknown-name %q", 1+i, msg, name)
		}
		// The known list must name exactly KnownDirectives' keys, so it
		// cannot go stale when a directive is added or removed.
		_, list, _ := strings.Cut(msg, "(known: ")
		named := strings.Split(strings.TrimSuffix(list, ")"), ", ")
		slices.Sort(named)
		if want := slices.Sorted(maps.Keys(KnownDirectives)); !slices.Equal(named, want) {
			t.Errorf("diagnostic %d names known directives %q, want %q", 1+i, named, want)
		}
	}
}

// TestDirectiveUnused: a well-formed directive that no Covers call matched
// is stale; malformed ones are Validate's to report, not Unused's.
func TestDirectiveUnused(t *testing.T) {
	fset, tab := parseDirectiveTable(t)
	tab.Covers("orderinvariant", "p.go", 5)
	var lines []int
	tab.Unused(func(pos token.Pos, format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); !strings.Contains(msg, "suppresses no diagnostic") {
			t.Errorf("unexpected diagnostic %q", msg)
		}
		lines = append(lines, fset.Position(pos).Line)
	})
	if !slices.Equal(lines, []int{7}) {
		t.Errorf("Unused reported lines %v, want [7] (the measured waiver nothing matched)", lines)
	}
}
