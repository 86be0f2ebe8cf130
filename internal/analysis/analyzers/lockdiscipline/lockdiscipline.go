// Package lockdiscipline enforces two mutex rules on struct fields
// annotated "// guarded by <mu>":
//
//  1. A guarded field may be read or written only inside a function
//     that acquires <mu> on the same variable, or inside a method
//     whose name ends in "Locked" / whose doc carries
//     "//repolint:requires <mu>" (meaning every caller holds the
//     lock).
//  2. A function that holds <mu> — it locked it, or it is a
//     requires-locked method — must not call another method on the
//     same receiver that acquires <mu>: Go mutexes are not reentrant,
//     so that call is a guaranteed self-deadlock.
//
// The analysis is flow-insensitive: "acquires" means the body contains
// recv.<mu>.Lock() (or RLock) anywhere. That is deliberately coarse —
// the repo's critical sections are whole-method — and errs toward
// missing a release-then-call pattern rather than drowning real races
// in noise.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags guarded-field access without the guarding mutex and
// reentrant same-receiver lock acquisition.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: `fields commented "guarded by <mu>" are only touched under <mu>, never reentrantly

The concurrent extraction core's mutable shared state (fwdQueue, the
vtime barrier words) is protected by plain sync.Mutex. This
analyzer turns the "guarded by" comments into a checked contract, so an
unsynchronized write (the SetOwnerCheck bug class) or a reentrant
acquire is a lint failure instead of a latent race.`,
	Run: run,
}

// guard describes one annotated field.
type guard struct {
	owner *types.Named
	mu    string
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	fns := collectFunctions(pass, guards)

	for _, fn := range fns {
		// Rule 1: guarded accesses need the lock held.
		for _, acc := range fn.accesses {
			g := guards[acc.field]
			if fn.locked[lockKey{acc.onVar, g.mu}] {
				continue
			}
			if fn.requires(g) {
				continue
			}
			pass.Reportf(acc.pos,
				"%s accesses %s.%s (guarded by %s) without holding %s; lock it or mark the method `...Locked`/`//repolint:requires %s`",
				fn.name(), g.owner.Obj().Name(), acc.field.Name(), g.mu, g.mu, g.mu)
		}
		// Rule 2: no reentrant acquire on the same receiver.
		for _, call := range fn.recvCalls {
			callee := fns[call.fn]
			if callee == nil || callee.decl.Recv == nil {
				continue
			}
			for mu := range callee.selfLocks {
				if fn.locked[lockKey{call.onVar, mu}] || fn.requiresMu(receiverNamed(pass, fn.decl), mu) {
					pass.Reportf(call.pos,
						"%s holds %s and calls %s, which acquires %s on the same receiver; sync.Mutex is not reentrant (self-deadlock)",
						fn.name(), mu, call.fn.Name(), mu)
				}
			}
		}
	}
	return nil
}

// collectGuards maps annotated field objects to their guard info.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	guards := map[*types.Var]guard{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				fieldNames := map[string]bool{}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fieldNames[name.Name] = true
					}
				}
				for _, fld := range st.Fields.List {
					mu, ok := analysis.GuardedBy(fld)
					if !ok {
						continue
					}
					if !fieldNames[mu] {
						pass.Reportf(fld.Pos(), "field is guarded by %q, but %s has no such field", mu, named.Obj().Name())
						continue
					}
					for _, name := range fld.Names {
						if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							guards[obj] = guard{owner: named, mu: mu}
						}
					}
				}
			}
		}
	}
	return guards
}

type lockKey struct {
	on types.Object // the variable whose mutex field is locked
	mu string
}

type access struct {
	pos   token.Pos
	field *types.Var
	onVar types.Object // receiver-like variable the field is reached through (may be nil)
}

type recvCall struct {
	pos   token.Pos
	fn    *types.Func
	onVar types.Object
}

// fnScan is one function's lock-relevant behaviour.
type fnScan struct {
	decl      *ast.FuncDecl
	obj       *types.Func
	locked    map[lockKey]bool
	selfLocks map[string]bool // mutex fields this method locks on its own receiver
	accesses  []access
	recvCalls []recvCall
	reqMu     string // from //repolint:requires <mu>
}

func (f *fnScan) name() string { return f.obj.Name() }

// requires reports whether the function is a method of the guard's
// owner documented to run with the lock already held.
func (f *fnScan) requires(g guard) bool {
	return f.requiresMu(nil, g.mu) && methodOf(f.obj) != nil
}

func (f *fnScan) requiresMu(_ *types.Named, mu string) bool {
	if strings.HasSuffix(f.obj.Name(), "Locked") {
		return true
	}
	return f.reqMu == mu
}

func methodOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

func receiverNamed(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.Types[fd.Recv.List[0].Type].Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func collectFunctions(pass *analysis.Pass, guards map[*types.Var]guard) map[*types.Func]*fnScan {
	fns := map[*types.Func]*fnScan{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			scan := &fnScan{decl: fd, obj: obj, locked: map[lockKey]bool{}, selfLocks: map[string]bool{}}
			if req, ok := analysis.TypeAnnotation(fd.Doc, "requires"); ok {
				scan.reqMu = req
			}
			var recvObj types.Object
			if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
				recvObj = pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					// x.mu.Lock() / x.mu.RLock()
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
							if inner, ok := sel.X.(*ast.SelectorExpr); ok {
								if id, ok := inner.X.(*ast.Ident); ok {
									if on := pass.TypesInfo.Uses[id]; on != nil {
										scan.locked[lockKey{on, inner.Sel.Name}] = true
										if recvObj != nil && on == recvObj {
											scan.selfLocks[inner.Sel.Name] = true
										}
									}
								}
							}
						}
						// x.Method(...) on an identifier receiver.
						if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() == pass.Pkg {
							if id, ok := sel.X.(*ast.Ident); ok {
								if on := pass.TypesInfo.Uses[id]; on != nil {
									scan.recvCalls = append(scan.recvCalls, recvCall{pos: n.Pos(), fn: fn, onVar: on})
								}
							}
						}
					}
				case *ast.SelectorExpr:
					if obj, ok := pass.TypesInfo.Uses[n.Sel].(*types.Var); ok {
						if _, guarded := guards[obj]; guarded {
							var on types.Object
							if id, ok := n.X.(*ast.Ident); ok {
								on = pass.TypesInfo.Uses[id]
							}
							scan.accesses = append(scan.accesses, access{pos: n.Sel.Pos(), field: obj, onVar: on})
						}
					}
				}
				return true
			})
			fns[obj] = scan
		}
	}
	return fns
}
