// Package indexinvalidate enforces the cached-view invalidation
// invariant introduced with the dense kcm.Index (PR 1): any exported
// entry point that structurally mutates a struct annotated
//
//	//repolint:invalidate <hook>
//
// must reach the named invalidation hook — a method call or a write to
// the hook field — directly or through same-package callees, before it
// returns. Fields the hook itself writes are the caches; writing only
// those (a cache fill such as Matrix.Index) is not a structural
// mutation and needs no invalidation.
package indexinvalidate

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags exported mutators of annotated types that never
// invalidate the type's cached views.
var Analyzer = &analysis.Analyzer{
	Name: "indexinvalidate",
	Doc: `exported mutators of //repolint:invalidate types must reach the invalidation hook

A type annotated "//repolint:invalidate h" promises that every cached
view derived from it is dropped by h. Any exported function or method
that writes one of the type's non-cache fields (assignment, ++/--,
delete, or the same through unexported same-package helpers) and never
reaches h leaves stale dense indexes live — the bug class the
rectangle searcher's Index cache makes catastrophic.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, tgt := range analysis.AnnotatedTypes(pass, "invalidate") {
		checkType(pass, tgt)
	}
	return nil
}

// funcFacts is what one function body does to the target type.
type funcFacts struct {
	decl    *ast.FuncDecl
	writes  map[string]bool // target fields written directly
	hook    bool            // hook reached directly
	callees []*types.Func   // same-package calls
}

func checkType(pass *analysis.Pass, tgt analysis.AnnotatedType) {
	hookName := tgt.Value
	if hookName == "" {
		pass.Reportf(tgt.Spec.Pos(), "repolint:invalidate annotation on %s names no hook; use `//repolint:invalidate <methodOrField>`", tgt.Named.Obj().Name())
		return
	}
	hookObj, _, _ := types.LookupFieldOrMethod(tgt.Named, true, pass.Pkg, hookName)
	if hookObj == nil {
		pass.Reportf(tgt.Spec.Pos(), "invalidation hook %q is neither a method nor a field of %s", hookName, tgt.Named.Obj().Name())
		return
	}
	hookFunc, hookIsMethod := hookObj.(*types.Func)

	facts := map[*types.Func]*funcFacts{}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			facts[obj] = collect(pass, tgt, fd, hookName, hookFunc, hookIsMethod)
			decls = append(decls, fd)
		}
	}

	// The hook's own (transitive) writes are the cache fields; writing
	// only those never requires invalidation.
	cacheFields := map[string]bool{}
	if hookIsMethod {
		var seen map[*types.Func]bool
		var grow func(fn *types.Func)
		seen = map[*types.Func]bool{}
		grow = func(fn *types.Func) {
			if seen[fn] {
				return
			}
			seen[fn] = true
			ff := facts[fn]
			if ff == nil {
				return
			}
			for w := range ff.writes {
				cacheFields[w] = true
			}
			for _, c := range ff.callees {
				grow(c)
			}
		}
		grow(hookFunc)
	} else {
		cacheFields[hookName] = true
	}

	// Transitive closure per exported entry point.
	type result struct {
		writes map[string]bool
		hook   bool
	}
	memo := map[*types.Func]*result{}
	var solve func(fn *types.Func) *result
	solve = func(fn *types.Func) *result {
		if r, ok := memo[fn]; ok {
			return r
		}
		r := &result{writes: map[string]bool{}}
		memo[fn] = r // cycle-safe: in-progress functions contribute nothing extra
		ff := facts[fn]
		if ff == nil {
			return r
		}
		for w := range ff.writes {
			r.writes[w] = true
		}
		r.hook = ff.hook
		for _, c := range ff.callees {
			cr := solve(c)
			for w := range cr.writes {
				r.writes[w] = true
			}
			r.hook = r.hook || cr.hook
		}
		return r
	}

	for _, fd := range decls {
		if !fd.Name.IsExported() {
			continue
		}
		obj := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if hookIsMethod && obj == hookFunc {
			continue
		}
		r := solve(obj)
		var structural []string
		for w := range r.writes {
			if !cacheFields[w] {
				structural = append(structural, w)
			}
		}
		if len(structural) == 0 || r.hook {
			continue
		}
		sort.Strings(structural)
		pass.Reportf(fd.Name.Pos(),
			"%s mutates %s field(s) %s but never reaches invalidation hook %q; cached views (dense index, sorted ids) go stale",
			fd.Name.Name, tgt.Named.Obj().Name(), strings.Join(structural, ", "), hookName)
	}
}

// collect gathers one function's direct facts about the target type.
func collect(pass *analysis.Pass, tgt analysis.AnnotatedType, fd *ast.FuncDecl, hookName string, hookFunc *types.Func, hookIsMethod bool) *funcFacts {
	ff := &funcFacts{decl: fd, writes: map[string]bool{}}
	targetField := func(e ast.Expr) (string, bool) {
		sel, ok := unwrapSelector(e)
		if !ok {
			return "", false
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return "", false
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if !types.Identical(t, tgt.Named) {
			return "", false
		}
		if s, ok := pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.FieldVal {
			return "", false
		}
		return sel.Sel.Name, true
	}
	markWrite := func(e ast.Expr) {
		if name, ok := targetField(e); ok {
			ff.writes[name] = true
			if !hookIsMethod && name == hookName {
				ff.hook = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(n.X)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
					markWrite(n.Args[0])
				}
			}
			if callee := calleeFunc(pass, n); callee != nil {
				if callee.Pkg() == pass.Pkg {
					ff.callees = append(ff.callees, callee)
				}
				if hookIsMethod && callee == hookFunc {
					ff.hook = true
				}
			}
		}
		return true
	})
	return ff
}

// unwrapSelector strips index expressions so x.f[i] and x.f both
// resolve to the selector x.f.
func unwrapSelector(e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			return v, true
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil, false
		}
	}
}

// calleeFunc resolves a call's static callee, if it is a declared
// function or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
