package lintpass

import (
	"go/ast"
	"go/token"
	"go/types"
)

// trackedObsTypes are the observability types whose nil value means
// "instrumentation disabled" under the nil-tracer zero-overhead
// contract (see internal/obs): any exported function or method that
// accepts a pointer to one of them must behave as a no-op (or
// equivalent) for nil, which concretely means no field access through
// the pointer before a dominating nil check. Method calls on the
// pointer are permitted — the contract makes every method of these
// types nil-safe, and this analyzer is exactly what enforces that
// promise inside the obs package itself. The value is the package-path
// suffix the type must live under (pathHasSuffixDir matching), so the
// execution-timeline types are covered alongside the core obs ones.
var trackedObsTypes = map[string]string{
	"Tracer":    "internal/obs",
	"Span":      "internal/obs",
	"MetricSet": "internal/obs",
	"Counter":   "internal/obs",
	"Histogram": "internal/obs",
	"Timeline":  "internal/obs/timeline",
	"Ring":      "internal/obs/timeline",
	// The flight recorder extends the contract to the black box: a nil
	// *Recorder/*Journal/*History/*Watchdog is the disabled instrument
	// (journal off, no sampler, no watchdog), and a nil *Flight is a
	// tracer without EnableFlight — all of their exported methods must
	// no-op on nil so call sites never need their own guards.
	"Recorder": "internal/obs/flight",
	"Journal":  "internal/obs/flight",
	"History":  "internal/obs/flight",
	"Watchdog": "internal/obs/flight",
	"Sampler":  "internal/obs/flight",
	"Flight":   "internal/obs",
}

// NilTracer proves the nil-safety contract: for every exported function
// or method with a receiver/parameter of type *obs.Tracer, *obs.Span,
// *obs.MetricSet, *obs.Counter, *obs.Histogram, *timeline.Timeline or
// *timeline.Ring, each field access (or explicit dereference) through
// that pointer must be dominated by a nil check on every path from the
// function entry.
var NilTracer = &Analyzer{
	Name: "niltracer",
	Doc:  "exported functions taking obs tracer/metric pointers must be nil-safe before the first dereference",
	Run:  runNilTracer,
}

func runNilTracer(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			for _, v := range trackedParams(pass, fn) {
				nc := &nilCheck{pass: pass, fn: fn, v: v}
				nc.block(fn.Body.List, false)
			}
		}
	}
}

// trackedParams collects the receiver and parameters of fn whose type is
// a pointer to one of the tracked obs types.
func trackedParams(pass *Pass, fn *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	collect := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				v, ok := pass.Info.Defs[name].(*types.Var)
				if ok && isTrackedObsPointer(v.Type()) {
					out = append(out, v)
				}
			}
		}
	}
	collect(fn.Recv)
	if fn.Type.Params != nil {
		collect(fn.Type.Params)
	}
	return out
}

// isTrackedObsPointer reports whether t is *obs.T for a tracked T.
func isTrackedObsPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	suffix, tracked := trackedObsTypes[obj.Name()]
	if !tracked {
		return false
	}
	return pathHasSuffixDir(obj.Pkg().Path(), suffix)
}

// nilCheck walks one function body tracking, per statement, whether the
// tracked pointer is proven non-nil ("guarded") on the current path.
// The analysis is a conservative straight-line walk: guards established
// inside loops or non-dominating branches do not escape them.
type nilCheck struct {
	pass *Pass
	fn   *ast.FuncDecl
	v    *types.Var
}

// block walks a statement list and returns whether the pointer is
// guarded after the list on the fall-through path.
func (nc *nilCheck) block(stmts []ast.Stmt, guarded bool) bool {
	for _, s := range stmts {
		guarded = nc.stmt(s, guarded)
	}
	return guarded
}

func (nc *nilCheck) stmt(s ast.Stmt, guarded bool) bool {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			guarded = nc.stmt(s.Init, guarded)
		}
		switch {
		case nc.impliedByNil(s.Cond):
			// `if v == nil [|| ...] { ... }`: the branch body runs with v
			// possibly nil, the else branch and — when the body always
			// jumps — the fall-through run with v non-nil.
			nc.scan(s.Cond, guarded)
			nc.block(s.Body.List, guarded)
			if s.Else != nil {
				nc.stmt(s.Else, true)
			}
			if terminates(s.Body) {
				return true
			}
			return guarded
		case nc.impliesNonNil(s.Cond):
			// `if v != nil [&& ...] { ... }`: body guarded, else not.
			nc.scan(s.Cond, guarded)
			nc.block(s.Body.List, true)
			if s.Else != nil {
				nc.stmt(s.Else, guarded)
			}
			return guarded
		default:
			nc.scan(s.Cond, guarded)
			nc.block(s.Body.List, guarded)
			if s.Else != nil {
				nc.stmt(s.Else, guarded)
			}
			return guarded
		}
	case *ast.BlockStmt:
		return nc.block(s.List, guarded)
	case *ast.LabeledStmt:
		return nc.stmt(s.Stmt, guarded)
	case *ast.AssignStmt:
		nc.scan(s, guarded)
		// Reassignment of the tracked pointer resets the analysis: a
		// non-nil initialiser re-guards it, a literal nil un-guards it.
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || nc.objOf(id) != nc.v {
				continue
			}
			if i < len(s.Rhs) {
				if tv, ok := nc.pass.Info.Types[s.Rhs[i]]; ok && tv.IsNil() {
					return false
				}
			}
			return true
		}
		return guarded
	case *ast.ForStmt:
		if s.Init != nil {
			guarded = nc.stmt(s.Init, guarded)
		}
		if s.Cond != nil {
			nc.scan(s.Cond, guarded)
		}
		if s.Post != nil {
			nc.stmt(s.Post, guarded)
		}
		nc.block(s.Body.List, guarded)
		return guarded
	case *ast.RangeStmt:
		nc.scan(s.X, guarded)
		nc.block(s.Body.List, guarded)
		return guarded
	case *ast.SwitchStmt:
		if s.Init != nil {
			guarded = nc.stmt(s.Init, guarded)
		}
		if s.Tag != nil {
			nc.scan(s.Tag, guarded)
		}
		nc.block(s.Body.List, guarded)
		return guarded
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		nc.scan(s, guarded)
		return guarded
	case *ast.CaseClause:
		for _, e := range s.List {
			nc.scan(e, guarded)
		}
		nc.block(s.Body, guarded)
		return guarded
	case *ast.CommClause:
		if s.Comm != nil {
			nc.stmt(s.Comm, guarded)
		}
		nc.block(s.Body, guarded)
		return guarded
	case nil:
		return guarded
	default:
		nc.scan(s, guarded)
		return guarded
	}
}

// scan flags unguarded dereferences of the tracked pointer anywhere in
// the subtree (including function literals, which inherit the current
// path state conservatively). Short-circuit boolean operators are
// modelled: in `v == nil || v.f != 0` the right operand only evaluates
// with v non-nil, which is the idiomatic single-line guard.
func (nc *nilCheck) scan(n ast.Node, guarded bool) {
	if guarded || n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LOR:
				nc.scan(e.X, false)
				nc.scan(e.Y, nc.impliedByNil(e.X))
				return false
			case token.LAND:
				nc.scan(e.X, false)
				nc.scan(e.Y, nc.impliesNonNil(e.X))
				return false
			}
			return true
		case *ast.SelectorExpr:
			id, ok := e.X.(*ast.Ident)
			if !ok || nc.objOf(id) != nc.v {
				return true
			}
			sel, ok := nc.pass.Info.Selections[e]
			if ok && sel.Kind() == types.FieldVal {
				nc.report(e.Pos(), "access to field "+e.Sel.Name)
			}
			return true
		case *ast.StarExpr:
			if id, ok := e.X.(*ast.Ident); ok && nc.objOf(id) == nc.v {
				nc.report(e.Pos(), "explicit dereference")
			}
			return true
		}
		return true
	})
}

func (nc *nilCheck) report(pos token.Pos, what string) {
	nc.pass.Reportf(pos,
		"%s of nil-able %s %q before a nil check on all paths in exported %s (nil-tracer contract); guard with `if %s == nil`",
		what, nc.v.Type().String(), nc.v.Name(), nc.fn.Name.Name, nc.v.Name())
}

func (nc *nilCheck) objOf(id *ast.Ident) types.Object {
	if obj := nc.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return nc.pass.Info.Defs[id]
}

// impliedByNil reports whether cond is guaranteed true when v == nil,
// i.e. `v == nil`, `v == nil || X`, or conjunctions/disjunctions built
// from such terms. Used for early-return guards.
func (nc *nilCheck) impliedByNil(cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL:
			return nc.isNilCompare(e)
		case token.LOR:
			return nc.impliedByNil(e.X) || nc.impliedByNil(e.Y)
		case token.LAND:
			return nc.impliedByNil(e.X) && nc.impliedByNil(e.Y)
		}
	}
	return false
}

// impliesNonNil reports whether cond being true guarantees v != nil,
// i.e. `v != nil`, `v != nil && X`, etc. Used for guarded branches.
func (nc *nilCheck) impliesNonNil(cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.NEQ:
			return nc.isNilCompare(e)
		case token.LAND:
			return nc.impliesNonNil(e.X) || nc.impliesNonNil(e.Y)
		case token.LOR:
			return nc.impliesNonNil(e.X) && nc.impliesNonNil(e.Y)
		}
	}
	return false
}

// isNilCompare reports whether e compares the tracked pointer with nil.
func (nc *nilCheck) isNilCompare(e *ast.BinaryExpr) bool {
	matches := func(x, y ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		if !ok || nc.objOf(id) != nc.v {
			return false
		}
		tv, ok := nc.pass.Info.Types[y]
		return ok && tv.IsNil()
	}
	return matches(e.X, e.Y) || matches(e.Y, e.X)
}

// terminates reports whether a block always leaves the enclosing
// statement list: its last statement is a return, a branch
// (break/continue/goto), or a panic call.
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
	case *ast.BlockStmt:
		return terminates(last)
	}
	return false
}
