package vetdriver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"disco/internal/lint/analysis"
)

// TestAnalyzeReportsStaleDirective: of two waivers, the one above a loop
// the analyzer flags is used and silent; the one above a loop it no longer
// flags is reported as stale.
func TestAnalyzeReportsStaleDirective(t *testing.T) {
	const src = `package p

func f(m map[int]int, xs []int) {
	//disco:orderinvariant a waived map loop
	for range m {
	}
	//disco:orderinvariant stale: this loop is over a slice
	for range xs {
	}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	mapLoops := &analysis.Analyzer{
		Name:      "maploops",
		Directive: "orderinvariant",
		Run: func(pass *analysis.Pass) error {
			ast.Inspect(f, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						pass.Reportf(rs.For, "map loop")
					}
				}
				return true
			})
			return nil
		},
	}
	diags := Analyze(fset, []*ast.File{f}, pkg, info, []*analysis.Analyzer{mapLoops})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want the stale directive only: %v", len(diags), diags)
	}
	if d := diags[0]; fset.Position(d.Pos).Line != 7 || !strings.Contains(d.Message, "suppresses no diagnostic") {
		t.Errorf("got %q at line %d, want the stale directive at line 7", d.Message, fset.Position(d.Pos).Line)
	}
}
