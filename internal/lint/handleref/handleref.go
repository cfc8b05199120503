// Package handleref checks the exact-refcount reclamation contract of
// snapshot.Handle (PR 6): a successful TryRetain pins an epoch, and
// the pin must be dropped by exactly one Release on every path out of
// the retained region — a leaked reference keeps a folded-away chain
// base alive forever, and the dynamic tests only catch that if a storm
// happens to retire the right epoch.
//
// The analysis is intra-function and syntactic over the guarded
// region:
//
//	if h.TryRetain() {        // region = the success branch
//	        ...               // every exit must Release h,
//	}                         // defer h.Release(), or pass h on
//
// `ok := h.TryRetain(); if ok { ... }` and the negated guard
// `if !h.TryRetain() { return }` (region = the rest of the block) are
// recognized too. Within the region, a path is satisfied by
//
//   - h.Release() or defer h.Release() (directly or inside a deferred
//     closure),
//   - any escape of h — returning it, passing it to a call, assigning
//     it elsewhere, capturing it in a goroutine: ownership transfer is
//     beyond intra-function analysis, so escapes silence the check
//     rather than false-positive on the serve plane's publish path.
//
// A fall-off or return with the reference still held is reported, as
// is a TryRetain whose result is discarded (the caller cannot know
// whether it holds a reference). Deliberate long-lived pins carry
// //disco:retained <reason>.
package handleref

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"disco/internal/lint/analysis"
)

// Analyzer is the handleref check.
var Analyzer = &analysis.Analyzer{
	Name:      "handleref",
	Doc:       "checks that every successful snapshot.Handle.TryRetain is matched by a Release on all paths (defer-aware)",
	Directive: "retained",
	Run:       run,
}

// handleMethods are the Handle methods that use the receiver without
// transferring ownership; any other appearance of the receiver
// expression counts as an escape.
var handleMethods = map[string]bool{
	"TryRetain": true, "Retain": true, "Release": true,
	"Snapshot": true, "Epoch": true, "Refs": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body, ok := funcBody(n)
			if !ok || body == nil {
				return true
			}
			checkBody(pass, body)
			return true
		})
	}
	return nil
}

func funcBody(n ast.Node) (*ast.BlockStmt, bool) {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body, true
	case *ast.FuncLit:
		return n.Body, true
	}
	return nil, false
}

// checkBody scans one function body's statement lists for TryRetain
// guards and verifies their success regions.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var walkList func(list []ast.Stmt)
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BlockStmt:
			walkList(s.List)
		case *ast.IfStmt:
			walkList(s.Body.List)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.ForStmt:
			walkList(s.Body.List)
		case *ast.RangeStmt:
			walkList(s.Body.List)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				walkList(c.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				walkList(c.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				walkList(c.(*ast.CommClause).Body)
			}
		case *ast.LabeledStmt:
			walk(s.Stmt)
		}
	}
	walkList = func(list []ast.Stmt) {
		for i, s := range list {
			checkStmt(pass, s, list[i+1:])
			walk(s)
		}
	}
	walkList(body.List)
}

// checkStmt recognizes the TryRetain guard shapes rooted at s. tail is
// the rest of s's statement list (the success region of a negated
// guard, and where `ok := h.TryRetain()` finds its `if ok`).
func checkStmt(pass *analysis.Pass, s ast.Stmt, tail []ast.Stmt) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if call, recv, neg := retainCond(pass, s.Cond); call != nil {
			if neg {
				// if !h.TryRetain() { bail }: region = rest of the
				// enclosing block, provided the failure branch leaves.
				if terminates(s.Body) {
					verifyRegion(pass, call, recv, tail, true)
				}
			} else {
				verifyRegion(pass, call, recv, s.Body.List, true)
			}
		}
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		call, recv := retainCall(pass, s.Rhs[0])
		if call == nil {
			return
		}
		lhs, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
		if !ok {
			return
		}
		if lhs.Name == "_" {
			pass.Reportf(call.Pos(), "TryRetain result discarded: the caller cannot know whether it holds a reference to release")
			return
		}
		obj := pass.TypesInfo.ObjectOf(lhs)
		// Find the `if ok` / `if !ok` consuming the result.
		for _, t := range tail {
			ifs, ok := t.(*ast.IfStmt)
			if !ok {
				continue
			}
			cond := ast.Unparen(ifs.Cond)
			neg := false
			if u, isNeg := cond.(*ast.UnaryExpr); isNeg && u.Op == token.NOT {
				cond, neg = ast.Unparen(u.X), true
			}
			if id, isID := cond.(*ast.Ident); isID && pass.TypesInfo.ObjectOf(id) == obj {
				if neg {
					if terminates(ifs.Body) {
						idx := indexOf(tail, t)
						verifyRegion(pass, call, recv, tail[idx+1:], true)
					}
				} else {
					verifyRegion(pass, call, recv, ifs.Body.List, true)
				}
				return
			}
		}
	case *ast.ExprStmt:
		if call, _ := retainCall(pass, s.X); call != nil {
			pass.Reportf(call.Pos(), "TryRetain result discarded: the caller cannot know whether it holds a reference to release")
		}
	}
}

func indexOf(list []ast.Stmt, s ast.Stmt) int {
	for i, t := range list {
		if t == s {
			return i
		}
	}
	return -1
}

// retainCond unwraps an if condition to a TryRetain call, reporting
// whether it was negated.
func retainCond(pass *analysis.Pass, cond ast.Expr) (*ast.CallExpr, string, bool) {
	cond = ast.Unparen(cond)
	neg := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, neg = ast.Unparen(u.X), true
	}
	call, recv := retainCall(pass, cond)
	return call, recv, neg
}

// retainCall matches e as a snapshot.Handle TryRetain call and returns
// the receiver's canonical expression string.
func retainCall(pass *analysis.Pass, e ast.Expr) (*ast.CallExpr, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "TryRetain" {
		return nil, ""
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return nil, ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Handle" {
		return nil, ""
	}
	if pkg := named.Obj().Pkg(); pkg == nil || pathSuffix(pkg.Path()) != "snapshot" {
		return nil, ""
	}
	return call, types.ExprString(ast.Unparen(sel.X))
}

// terminates reports whether a block always leaves the enclosing
// statement list (ends in return/branch/panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// verifyRegion simulates the success region: every return must be
// preceded by a Release, defer Release, or escape of recv, and — when
// the region is a closed block (checkFall) — so must the normal exit.
func verifyRegion(pass *analysis.Pass, retain *ast.CallExpr, recv string, region []ast.Stmt, checkFall bool) {
	sim := &simulator{pass: pass, recv: recv, retain: retain}
	falls, st := sim.run(region, false)
	if checkFall && falls && !st {
		sim.report()
	}
}

// simulator walks a region tracking one boolean: is the reference
// released (or ownership transferred) on the current path?
type simulator struct {
	pass     *analysis.Pass
	recv     string
	retain   *ast.CallExpr
	reported bool
}

func (s *simulator) report() {
	if s.reported {
		return
	}
	s.reported = true
	s.pass.Reportf(s.retain.Pos(),
		"successful TryRetain of %s is not matched by a Release on every path; release, defer the release, or waive with //disco:retained <reason>", s.recv)
}

// run simulates list from state st; it returns whether control can
// fall out the end normally and the (conservative) state there.
func (s *simulator) run(list []ast.Stmt, st bool) (falls bool, out bool) {
	for _, stmt := range list {
		if term := s.step(stmt, &st); term {
			return false, st
		}
	}
	return true, st
}

// step processes one statement, updating *st; it reports whether the
// path terminates here (return/branch).
func (s *simulator) step(stmt ast.Stmt, st *bool) (terminated bool) {
	switch stmt := stmt.(type) {
	case *ast.ExprStmt:
		if s.isRelease(stmt.X) {
			*st = true
		} else if !*st && s.mentionsRecv(stmt) {
			*st = true // passed to a call: ownership escape
		}
	case *ast.DeferStmt:
		if s.mentionsRecv(stmt) {
			*st = true // defer h.Release(), or closure holding h
		}
	case *ast.ReturnStmt:
		if !*st && s.mentionsRecv(stmt) {
			*st = true // returning the handle transfers ownership
		}
		if !*st {
			s.report()
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the region; the surrounding code
		// owns the reference there — beyond this region's analysis.
		return true
	case *ast.IfStmt:
		thenFalls, thenSt := s.run(stmt.Body.List, *st)
		elseFalls, elseSt := true, *st
		if stmt.Else != nil {
			switch e := stmt.Else.(type) {
			case *ast.BlockStmt:
				elseFalls, elseSt = s.run(e.List, *st)
			case *ast.IfStmt:
				est := *st
				term := s.step(e, &est)
				elseFalls, elseSt = !term, est
			}
		}
		switch {
		case thenFalls && elseFalls:
			*st = thenSt && elseSt
		case thenFalls:
			*st = thenSt
		case elseFalls:
			*st = elseSt
		default:
			return true
		}
	case *ast.BlockStmt:
		falls, out := s.run(stmt.List, *st)
		*st = out
		if !falls {
			return true
		}
	case *ast.ForStmt:
		// Optimistic: a release anywhere in the loop body counts, so
		// retry loops don't false-positive.
		_, out := s.run(stmt.Body.List, *st)
		*st = *st || out
	case *ast.RangeStmt:
		_, out := s.run(stmt.Body.List, *st)
		*st = *st || out
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses [][]ast.Stmt
		switch sw := stmt.(type) {
		case *ast.SwitchStmt:
			for _, c := range sw.Body.List {
				clauses = append(clauses, c.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range sw.Body.List {
				clauses = append(clauses, c.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, c := range sw.Body.List {
				clauses = append(clauses, c.(*ast.CommClause).Body)
			}
		}
		all := true
		anyFalls := false
		for _, body := range clauses {
			falls, out := s.run(body, *st)
			if falls {
				anyFalls = true
				all = all && out
			}
		}
		if anyFalls {
			*st = all
		}
	default:
		if !*st && s.mentionsRecv(stmt) {
			*st = true // assignment/send/go capturing the handle: escape
		}
	}
	return false
}

// isRelease matches recv.Release().
func (s *simulator) isRelease(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false
	}
	return types.ExprString(ast.Unparen(sel.X)) == s.recv
}

// mentionsRecv reports whether n uses the receiver expression outside
// a plain Handle method call — i.e. in a way that can transfer or
// alias the reference (argument, return value, assignment, closure
// capture) or that releases it inside a deferred closure.
func (s *simulator) mentionsRecv(n ast.Node) bool {
	accounted := make(map[ast.Expr]bool)
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := m.(*ast.SelectorExpr); ok && handleMethods[sel.Sel.Name] {
			if types.ExprString(ast.Unparen(sel.X)) == s.recv {
				if sel.Sel.Name == "Release" {
					found = true // a release reached through any path here
					return false
				}
				accounted[sel.X] = true
			}
		}
		if e, ok := m.(ast.Expr); ok && !accounted[e] {
			str := types.ExprString(ast.Unparen(e))
			// The receiver itself, or any prefix of its chain (the
			// struct holding the handle): returning or passing the
			// container aliases the reference just the same.
			if str == s.recv || strings.HasPrefix(s.recv, str+".") {
				found = true
				return false
			}
		}
		return true
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
