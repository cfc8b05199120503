// mergeorder enforces internal/parallel's task-ordered-merge rule
// inside the closures handed to the worker pool: tasks may write only
// to task-indexed storage. A closure that appends to a captured slice,
// writes a captured map, or stores to a captured slice at a position not
// derived from the task index produces schedule-dependent results (and
// usually a data race) — exactly the class TestWorkerCountInvariance
// exists to catch dynamically, caught here statically instead.
//
// For every call to parallel.Run / RunScratch / RunGather / Map /
// MapScratch, the check takes the function-literal argument, treats its
// final parameter as the task index, and flags inside the body:
//
//   - x = append(x, ...) or any assignment/++/-- whose target is a
//     captured (free) variable with no index step: a shared scalar or
//     slice-header write, ordered by the schedule;
//   - writes through a captured map (concurrent map writes fault, and
//     even a mutex would leave insertion order schedule-dependent);
//   - s[i] = v through a captured slice/array where no index in the
//     access chain mentions the task parameter: out[task] and
//     rows[task].Col are fine, out[k] for a loop-local k is not.
//
// Writes through the per-worker scratch parameter and through locals
// declared inside the closure are free by construction. Per-worker
// accumulators whose reduction really is order-independent (RunGather
// integer tallies) carry //disco:orderinvariant <reason>. Test files
// are skipped.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolFuncs are the parallel-pool entry points; the task closure is
// always the last argument.
var poolFuncs = map[string]bool{
	"Run": true, "RunScratch": true, "RunGather": true,
	"Map": true, "MapScratch": true,
}

func mergeOrder(p *pass) {
	for _, f := range p.libraryFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if lit := poolClosure(p, call); lit != nil && len(lit.Type.Params.List) > 0 {
					checkClosure(p, lit)
				}
			}
			return true
		})
	}
}

// poolClosure returns the task closure if call is a parallel-pool
// fan-out, else nil.
func poolClosure(p *pass, call *ast.CallExpr) *ast.FuncLit {
	fun := call.Fun
	// Strip explicit instantiation: parallel.Map[int](...)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = idx.X
	case *ast.IndexListExpr:
		fun = idx.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || !poolFuncs[sel.Sel.Name] {
		return nil
	}
	fn, ok := p.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || pathSuffix(fn.Pkg().Path()) != "parallel" || len(call.Args) == 0 {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	return lit
}

// checkClosure flags order-dependent writes to captured state inside
// one task closure.
func checkClosure(p *pass, lit *ast.FuncLit) {
	params := lit.Type.Params.List
	last := params[len(params)-1]
	if len(last.Names) == 0 {
		return // task index unnamed: nothing can be task-indexed
	}
	task := p.info.ObjectOf(last.Names[len(last.Names)-1])
	if task == nil {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkTaskWrite(p, lit, task, lhs, n.TokPos)
			}
		case *ast.IncDecStmt:
			checkTaskWrite(p, lit, task, n.X, n.TokPos)
		}
		return true
	})
}

// checkTaskWrite analyzes one write target inside the task closure lit.
// It unwinds the access chain to the root, noting map index steps and
// whether any index mentions the task parameter.
func checkTaskWrite(p *pass, lit *ast.FuncLit, task types.Object, lhs ast.Expr, pos token.Pos) {
	mapStep := false
	taskIndexed := false
	indexed := false
	e := lhs
walk:
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Selecting through a package name or a field: if x.X is a
			// package qualifier this is a global write (free by
			// definition); handled at the root below.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := p.info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			indexed = true
			if t := p.info.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					mapStep = true
				}
			}
			if mentions(x.Index, func(id *ast.Ident) bool { return p.info.ObjectOf(id) == task }) {
				taskIndexed = true
			}
			e = x.X
		case *ast.Ident:
			// A local or a parameter (scratch) is free to write; only a
			// variable captured from outside the closure is checked.
			if obj := p.info.ObjectOf(x); obj == nil || !obj.Pos().IsValid() || (obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()) {
				return
			}
			break walk
		default:
			return // writes through calls/composites: out of scope
		}
	}
	switch {
	case mapStep:
		p.report("mergeorder", pos,
			"write to a map captured by a parallel task closure: concurrent map writes fault and insertion order is schedule-dependent; write task-indexed storage and merge in task order, or waive with //disco:orderinvariant <reason>")
	case !indexed:
		p.report("mergeorder", pos,
			"write to captured variable from a parallel task closure is ordered by the worker schedule; write task-indexed storage (out[task] = ...) and merge in task order, or waive with //disco:orderinvariant <reason>")
	case !taskIndexed:
		p.report("mergeorder", pos,
			"captured slice is written at an index not derived from the task parameter; tasks must confine writes to task-indexed storage, or waive with //disco:orderinvariant <reason>")
	}
}
