// snapmutate turns the snapshot immutability contract — "what Fork()
// shares is never written after build" — into a static check.
//
// snapshot.Snapshot exposes no fields, so the contract is about
// provenance, not types: the slices and pointers its accessors return
// (ForestParents, Graph) alias storage shared by every fork,
// repair child and serve epoch, and a write through any of them corrupts
// all of those at once — the kind of bug -race only catches if two
// goroutines happen to collide during the test run. Vicinity windows need
// no entry here: vicinity.Window exposes no slice and no mutator, so the
// type itself carries the contract (a vicinity.Scratch writes the columns
// of the one window it created, a decode target no snapshot stores).
//
// The check does an intra-function taint walk: results of the sealed
// accessors are tainted, taint propagates through reference-typed
// assignments (slices, maps, pointers — a struct value copied out of a
// tainted slice is the caller's own), and it flags
//
//   - assignments or ++/-- through a tainted access chain
//     (lms[i] = x, parents[j] = p),
//   - append with a tainted first argument (may write the shared
//     backing array in place),
//   - sort-like calls on tainted values (sort.Slice(parents, ...)
//     mutates shared rows),
//   - graph mutator methods on a tainted *graph.Graph (AddEdge,
//     Finalize).
//
// The defining package of each accessor is exempt — build, repair and
// fold legitimately write the storage they own. Reviewed exceptions
// elsewhere carry //disco:mutates <reason>.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// sealedAccessors maps (package path suffix, receiver type name) to the
// methods whose results alias shared sealed storage. Methods that
// return fresh per-call allocations (PathFrom) are deliberately absent.
var sealedAccessors = map[[2]string][]string{
	{"snapshot", "Snapshot"}: {"ForestParents", "Graph"},
}

// graphMutators are the methods that structurally modify a graph;
// calling one on a graph obtained from a sealed snapshot rewrites shared
// topology.
var graphMutators = map[string]bool{"AddEdge": true, "Finalize": true}

func snapMutate(p *pass) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(p, fd.Body)
			}
		}
	}
}

// checkFunc taints sealed-accessor results within one function body
// (function literals included — they share the captured variables) and
// reports writes through them.
func checkFunc(p *pass, body *ast.BlockStmt) {
	t := &tainter{pass: p, objs: make(map[types.Object]bool)}
	// Propagate to fixpoint: assignments appear in source order almost
	// always, but a loop body may taint a variable used above it.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && t.tainted(rhs) && refLike(p.info.TypeOf(rhs)) {
							changed = t.mark(id) || changed
						}
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil && t.tainted(n.X) {
					if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok && refLike(p.info.TypeOf(id)) {
						changed = t.mark(id) || changed
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				t.checkWrite(lhs, n.TokPos)
			}
		case *ast.IncDecStmt:
			t.checkWrite(n.X, n.TokPos)
		case *ast.CallExpr:
			t.checkCall(n)
		}
		return true
	})
}

type tainter struct {
	pass *pass
	objs map[types.Object]bool
}

// mark taints id's object; reports whether that was new.
func (t *tainter) mark(id *ast.Ident) bool {
	obj := t.pass.info.ObjectOf(id)
	if obj == nil || t.objs[obj] {
		return false
	}
	t.objs[obj] = true
	return true
}

// tainted reports whether the root of e's access chain is sealed: a
// sealed-accessor call, a tainted identifier, or &-of-tainted.
func (t *tainter) tainted(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			e = x.X
		case *ast.Ident:
			obj := t.pass.info.ObjectOf(x)
			return obj != nil && t.objs[obj]
		case *ast.CallExpr:
			return t.sealedCall(x)
		default:
			return false
		}
	}
}

// sealedCall reports whether call invokes a sealed accessor defined
// outside the current package.
func (t *tainter) sealedCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := t.pass.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() == t.pass.pkg {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := derefType(recv.Type()).(*types.Named)
	if !ok {
		return false
	}
	return slices.Contains(sealedAccessors[[2]string{objPathSuffix(named.Obj()), named.Obj().Name()}], fn.Name())
}

// checkWrite reports a write whose access chain roots in sealed
// storage. A bare tainted identifier on the left is a rebinding, not a
// write through shared memory, so at least one selector/index/deref
// step is required.
func (t *tainter) checkWrite(lhs ast.Expr, pos token.Pos) {
	lhs = ast.Unparen(lhs)
	if _, ok := lhs.(*ast.Ident); ok {
		return
	}
	if t.tainted(lhs) {
		t.pass.report("snapmutate", pos,
			"write through sealed snapshot storage shared by every fork; copy before mutating, or waive with //disco:mutates <reason>")
	}
}

// checkCall flags append/sort/graph-mutator calls that modify sealed
// storage in place.
func (t *tainter) checkCall(call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "append" && len(call.Args) > 0 {
			if b, ok := t.pass.info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" && t.tainted(call.Args[0]) {
				t.pass.report("snapmutate", call.Pos(),
					"append to a slice aliasing sealed snapshot storage may write the shared backing array; copy first, or waive with //disco:mutates <reason>")
			}
		}
		if strings.Contains(strings.ToLower(fun.Name), "sort") {
			t.checkSortArgs(call)
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		// Match the qualified name: sort.Slice's selector is just
		// "Slice", the package qualifier carries the "sort".
		if strings.Contains(strings.ToLower(types.ExprString(call.Fun)), "sort") || name == "Reverse" {
			t.checkSortArgs(call)
		}
		if graphMutators[name] && t.tainted(fun.X) && t.isGraph(fun.X) {
			t.pass.report("snapmutate", call.Pos(),
				"%s on a graph obtained from a sealed snapshot rewrites shared topology; operate on a copy, or waive with //disco:mutates <reason>", name)
		}
	}
}

func (t *tainter) checkSortArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		if t.tainted(a) && refLike(t.pass.info.TypeOf(a)) {
			t.pass.report("snapmutate", call.Pos(),
				"in-place sort of sealed snapshot storage; sort a copy, or waive with //disco:mutates <reason>")
			return
		}
	}
}

func (t *tainter) isGraph(e ast.Expr) bool {
	typ := t.pass.info.TypeOf(e)
	if typ == nil {
		return false
	}
	named, ok := derefType(typ).(*types.Named)
	return ok && named.Obj().Name() == "Graph" && objPathSuffix(named.Obj()) == "graph"
}

// derefType strips one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// objPathSuffix is pathSuffix of obj's package path, "" for a universe
// object.
func objPathSuffix(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return pathSuffix(obj.Pkg().Path())
}

func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Interface, *types.Chan:
		return true
	}
	return false
}
