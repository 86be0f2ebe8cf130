// Package callgraph builds a whole-program static call graph over the
// packages loaded by internal/analysis. It is the shared substrate of
// the interprocedural analyzers: lockorder walks it to learn which
// locks a callee may acquire, ctxflow to learn whether a callee polls
// cancellation, faultpoint to decide whether a Guard-spawned goroutine
// can reach an injection point, testonly to find the functions no
// program reaches.
//
// Nodes are keyed by a stable string (package path + receiver + name)
// rather than by *types.Func identity, because the loader type-checks
// every package independently: package core's reference to
// vtime.(*Machine).Barrier resolves to the source importer's object,
// while the loaded vtime package declares its own — two distinct
// objects for one function. The string key unifies them.
//
// Function literals get their own nodes (they run at some other time
// than their lexical position), connected by:
//   - an edge from the enclosing function when the literal is invoked
//     directly (immediately-invoked or deferred calls);
//   - an edge from any caller of a local variable the literal was
//     assigned to (w := func(){...}; w() — the worker-body idiom of
//     the core drivers).
//
// The graph is an under-approximation at dynamic call sites: calls
// through interfaces, stored function fields, or callback parameters
// are not resolved. Analyzers must treat "no edge" as "unknown", not
// "no call" — lockorder errs toward missing an edge (fewer false
// cycles), faultpoint compensates by seeding reachability from the
// spawned literal itself, and testonly adds, on its own graph, an edge
// from each function to the literals and function values its body
// holds.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Key names one function, method or function literal uniquely across
// the program: "path.Name", "path.(Recv).Name", or
// "path.func@file:line:col" for literals.
type Key string

// FuncKey returns the graph key for a named function or method.
func FuncKey(fn *types.Func) Key {
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return Key(fmt.Sprintf("%s.(%s).%s", path, n.Obj().Name(), fn.Name()))
		}
	}
	return Key(path + "." + fn.Name())
}

// Call is one resolved static call site.
type Call struct {
	// Pos is the call expression's position.
	Pos token.Pos
	// Callee is the target's key. It may name a function outside the
	// loaded program (stdlib, tagged-out files); such targets have no
	// Node and act as leaves.
	Callee Key
	// Spawned marks a `go` statement's call: the callee runs on a new
	// goroutine, so caller-stack properties (held locks) do not flow
	// into it, while reachability properties (fault coverage) do.
	Spawned bool
	// Indirect marks a function value passed as an argument (a
	// callback body handed to Guard, a timer func handed to
	// time.AfterFunc): it runs at the receiving function's
	// discretion, possibly on another goroutine or later, so only
	// reachability properties should follow the edge.
	Indirect bool
}

// Node is one function, method or function literal of the program.
type Node struct {
	Key Key
	// Pkg is the loaded package declaring the function.
	Pkg *analysis.Package
	// Decl is the declaration (named functions only).
	Decl *ast.FuncDecl
	// Lit is the literal (function literals only).
	Lit *ast.FuncLit
	// Calls are the resolved static call sites in the body, in
	// source order. Calls inside nested literals belong to the
	// nested literal's node.
	Calls []Call
}

// Body returns the function's body block (nil for bodiless decls).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Graph is the whole-program call graph.
type Graph struct {
	Prog *analysis.Program
	// Nodes maps keys to nodes, covering every function declaration
	// and literal in the loaded program.
	Nodes map[Key]*Node
	// Closures maps local variable objects to the key of the function
	// literal assigned to them, so analyzers can resolve spawn sites
	// like `go Guard(..., body)` where body is a closure variable.
	// Object identities are package-local, matching the Uses map of
	// the package the variable appears in.
	Closures map[types.Object]Key
	// litKeys maps literal AST nodes to their keys.
	litKeys map[*ast.FuncLit]Key
}

// LitKey returns the key of a function literal in the program.
func (g *Graph) LitKey(lit *ast.FuncLit) (Key, bool) {
	k, ok := g.litKeys[lit]
	return k, ok
}

// Build constructs the call graph of the loaded program.
func Build(prog *analysis.Program) *Graph {
	g := &Graph{
		Prog:     prog,
		Nodes:    map[Key]*Node{},
		Closures: map[types.Object]Key{},
		litKeys:  map[*ast.FuncLit]Key{},
	}
	for _, pkg := range prog.Pkgs {
		b := &pkgBuilder{g: g, pkg: pkg, closures: g.Closures}
		// Pass 1: create nodes for every declaration and literal and
		// record which local variables hold which literals, so calls
		// through closure variables resolve in pass 2.
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				b.declare(fd)
			}
		}
		// Pass 2: resolve the calls of every node.
		for _, n := range b.nodes {
			b.resolve(n)
		}
	}
	return g
}

// pkgBuilder accumulates one package's contribution.
type pkgBuilder struct {
	g   *Graph
	pkg *analysis.Package
	// closures maps local variable objects to the literal assigned
	// to them (single-assignment resolution: a variable reassigned a
	// different literal keeps only the last, which is enough for the
	// worker-body idiom and errs toward a missing edge otherwise).
	closures map[types.Object]Key
	nodes    []*Node
}

// declare creates the node for fd and for every literal nested in it.
func (b *pkgBuilder) declare(fd *ast.FuncDecl) {
	fn, ok := b.pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	n := &Node{Key: FuncKey(fn), Pkg: b.pkg, Decl: fd}
	b.g.Nodes[n.Key] = n
	b.nodes = append(b.nodes, n)
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			pos := b.pkg.Fset.Position(x.Pos())
			k := Key(fmt.Sprintf("%s.func@%s:%d:%d", b.pkg.ImportPath, pos.Filename, pos.Line, pos.Column))
			ln := &Node{Key: k, Pkg: b.pkg, Lit: x}
			b.g.Nodes[k] = ln
			b.g.litKeys[x] = k
			b.nodes = append(b.nodes, ln)
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(x.Lhs) {
					continue
				}
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					b.noteClosure(id, lit)
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range x.Values {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(x.Names) {
					continue
				}
				b.noteClosure(x.Names[i], lit)
			}
		}
		return true
	})
}

// noteClosure records that the variable named by id holds lit.
func (b *pkgBuilder) noteClosure(id *ast.Ident, lit *ast.FuncLit) {
	obj := b.pkg.Info.Defs[id]
	if obj == nil {
		obj = b.pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	// The literal's key was (or will be) assigned in declare's walk;
	// compute it the same way so ordering does not matter.
	pos := b.pkg.Fset.Position(lit.Pos())
	b.closures[obj] = Key(fmt.Sprintf("%s.func@%s:%d:%d", b.pkg.ImportPath, pos.Filename, pos.Line, pos.Column))
}

// resolve fills n.Calls from its body, skipping nested literals.
func (b *pkgBuilder) resolve(n *Node) {
	body := n.Body()
	if body == nil {
		return
	}
	spawned := map[*ast.CallExpr]bool{}
	var walk func(x ast.Node) bool
	walk = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				return false // nested literal: its calls are its own
			}
		case *ast.GoStmt:
			spawned[x.Call] = true
		case *ast.CallExpr:
			if k, ok := b.calleeKey(x); ok {
				n.Calls = append(n.Calls, Call{Pos: x.Pos(), Callee: k, Spawned: spawned[x]})
			}
			if lit, ok := x.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal: edge to it.
				if k, ok := b.g.litKeys[lit]; ok {
					n.Calls = append(n.Calls, Call{Pos: x.Pos(), Callee: k, Spawned: spawned[x]})
				}
			}
			// Function values handed to the callee (Guard bodies,
			// timer funcs) may run there: Indirect edges.
			for _, arg := range x.Args {
				if k, ok := b.funcValueKey(arg); ok {
					n.Calls = append(n.Calls, Call{Pos: arg.Pos(), Callee: k, Spawned: spawned[x], Indirect: true})
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// CalleeKey resolves a call expression to a graph key using the
// package's type info: named functions and methods resolve by
// FuncKey, closure variables by the recorded literal. Dynamic calls
// report ok=false.
func (b *pkgBuilder) calleeKey(call *ast.CallExpr) (Key, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	if fn, ok := b.pkg.Info.Uses[id].(*types.Func); ok {
		return FuncKey(fn), true
	}
	if obj, ok := b.pkg.Info.Uses[id].(*types.Var); ok {
		if k, ok := b.closures[obj]; ok {
			return k, true
		}
	}
	return "", false
}

// funcValueKey resolves a function value used as an argument: a
// literal, a named function or method value, or a closure variable.
func (b *pkgBuilder) funcValueKey(arg ast.Expr) (Key, bool) {
	switch arg := arg.(type) {
	case *ast.FuncLit:
		pos := b.pkg.Fset.Position(arg.Pos())
		return Key(fmt.Sprintf("%s.func@%s:%d:%d", b.pkg.ImportPath, pos.Filename, pos.Line, pos.Column)), true
	case *ast.Ident:
		switch obj := b.pkg.Info.Uses[arg].(type) {
		case *types.Func:
			return FuncKey(obj), true
		case *types.Var:
			if k, ok := b.closures[obj]; ok {
				return k, true
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := b.pkg.Info.Uses[arg.Sel].(*types.Func); ok {
			return FuncKey(fn), true
		}
	}
	return "", false
}

// CalleeKeyIn resolves a call expression appearing in pkg. It is the
// exported form of the builder's resolver for analyzers that need
// ad-hoc resolution (e.g. the spawned body of a go statement).
func (g *Graph) CalleeKeyIn(pkg *analysis.Package, call *ast.CallExpr) (Key, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			if k, ok := g.litKeys[lit]; ok {
				return k, true
			}
		}
		return "", false
	}
	if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return FuncKey(fn), true
	}
	if obj, ok := pkg.Info.Uses[id].(*types.Var); ok {
		if k, ok := g.Closures[obj]; ok {
			return k, true
		}
	}
	return "", false
}

// Reachable returns the set of keys reachable from the seeds
// (inclusive) following call edges. Keys without nodes are included
// as leaves.
func (g *Graph) Reachable(seeds []Key) map[Key]bool {
	seen := map[Key]bool{}
	stack := append([]Key(nil), seeds...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		if n, ok := g.Nodes[k]; ok {
			for _, c := range n.Calls {
				if !seen[c.Callee] {
					stack = append(stack, c.Callee)
				}
			}
		}
	}
	return seen
}

// Fixpoint propagates a boolean property backward over call edges
// until stable: a function has the property if direct(fn) is true or
// any callee reached through an edge follow accepts has it. Pass
// FollowAll for reachability properties (fault coverage, which
// crosses goroutine spawns) and FollowSameStack for caller-stack
// properties (cancellation polling, lock acquisition). Nodes outside
// the program (no body) never gain the property.
func (g *Graph) Fixpoint(direct func(*Node) bool, follow func(Call) bool) map[Key]bool {
	has := map[Key]bool{}
	for k, n := range g.Nodes {
		if direct(n) {
			has[k] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for k, n := range g.Nodes {
			if has[k] {
				continue
			}
			for _, c := range n.Calls {
				if !follow(c) {
					continue
				}
				if has[c.Callee] {
					has[k] = true
					changed = true
					break
				}
			}
		}
	}
	return has
}

// FollowAll follows every call edge, including spawned and indirect
// ones.
func FollowAll(Call) bool { return true }

// FollowSameStack follows only edges whose callee runs synchronously
// on the caller's stack.
func FollowSameStack(c Call) bool { return !c.Spawned && !c.Indirect }
