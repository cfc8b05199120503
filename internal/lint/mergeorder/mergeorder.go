// Package mergeorder enforces internal/parallel's task-ordered-merge
// rule inside the closures handed to the worker pool: tasks may write
// only to task-indexed storage. A closure that appends to a captured
// slice, writes a captured map, or stores to a captured slice at a
// position not derived from the task index produces schedule-dependent
// results (and usually a data race) — exactly the class
// TestWorkerCountInvariance exists to catch dynamically, caught here
// statically instead.
//
// For every call to parallel.Run / RunScratch / RunGather / Map /
// MapScratch, the analyzer takes the function-literal argument, treats
// its final parameter as the task index, and flags inside the body:
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
package mergeorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"disco/internal/lint/analysis"
)

// Analyzer is the mergeorder check.
var Analyzer = &analysis.Analyzer{
	Name:      "mergeorder",
	Doc:       "flags parallel.Run/Map closures writing captured state at non-task-indexed locations",
	Directive: "orderinvariant",
	Run:       run,
}

// poolFuncs maps the parallel-pool entry points to the position of the
// task-taking function literal (always the last argument).
var poolFuncs = map[string]bool{
	"Run": true, "RunScratch": true, "RunGather": true,
	"Map": true, "MapScratch": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit := poolClosure(pass, call)
			if lit == nil || len(lit.Type.Params.List) == 0 {
				return true
			}
			checkClosure(pass, lit)
			return true
		})
	}
	return nil
}

// poolClosure returns the task closure if call is a parallel-pool
// fan-out, else nil.
func poolClosure(pass *analysis.Pass, call *ast.CallExpr) *ast.FuncLit {
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
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || pathSuffix(fn.Pkg().Path()) != "parallel" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	return lit
}

// checkClosure flags order-dependent writes to captured state inside
// one task closure.
func checkClosure(pass *analysis.Pass, lit *ast.FuncLit) {
	params := lit.Type.Params.List
	last := params[len(params)-1]
	if len(last.Names) == 0 {
		return // task index unnamed: nothing can be task-indexed
	}
	taskObj := pass.TypesInfo.ObjectOf(last.Names[len(last.Names)-1])
	if taskObj == nil {
		return
	}
	c := &checker{pass: pass, lit: lit, task: taskObj}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs, n.TokPos)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, n.TokPos)
		}
		return true
	})
}

type checker struct {
	pass *analysis.Pass
	lit  *ast.FuncLit
	task types.Object
}

// free reports whether obj is captured from outside the closure.
func (c *checker) free(obj types.Object) bool {
	if obj == nil {
		return false
	}
	pos := obj.Pos()
	return pos.IsValid() && (pos < c.lit.Pos() || pos > c.lit.End())
}

// checkWrite analyzes one write target. It unwinds the access chain to
// the root, noting map index steps and whether any index mentions the
// task parameter.
func (c *checker) checkWrite(lhs ast.Expr, pos token.Pos) {
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
				if _, isPkg := c.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			indexed = true
			if t := c.pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					mapStep = true
				}
			}
			if c.mentionsTask(x.Index) {
				taskIndexed = true
			}
			e = x.X
		case *ast.Ident:
			obj := c.pass.TypesInfo.ObjectOf(e.(*ast.Ident))
			if !c.free(obj) {
				return // local or parameter (scratch): free to write
			}
			break walk
		default:
			return // writes through calls/composites: out of scope
		}
	}
	switch {
	case mapStep:
		c.pass.Reportf(pos,
			"write to a map captured by a parallel task closure: concurrent map writes fault and insertion order is schedule-dependent; write task-indexed storage and merge in task order, or waive with //disco:orderinvariant <reason>")
	case !indexed:
		c.pass.Reportf(pos,
			"write to captured variable from a parallel task closure is ordered by the worker schedule; write task-indexed storage (out[task] = ...) and merge in task order, or waive with //disco:orderinvariant <reason>")
	case !taskIndexed:
		c.pass.Reportf(pos,
			"captured slice is written at an index not derived from the task parameter; tasks must confine writes to task-indexed storage, or waive with //disco:orderinvariant <reason>")
	}
}

// mentionsTask reports whether any identifier in e resolves to the
// task parameter.
func (c *checker) mentionsTask(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == c.task {
			found = true
		}
		return !found
	})
	return found
}

func pathSuffix(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
