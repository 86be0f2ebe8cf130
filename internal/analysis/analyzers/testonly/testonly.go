// Package testonly is a whole-program analyzer that keeps production
// packages free of code only tests run. A function that no program
// reaches is either dead or an oracle a test leans on; either way it
// is not what the shipped binaries execute, and it hides in the line
// count the design aims to shrink. The analyzer reports every
// function and method declared in a non-main package that no program
// reaches, exported or not, so deleting an exported function cannot
// leave its helpers behind.
//
// Roots:
//   - every function of a main package;
//   - every init function and every package-level variable
//     initializer;
//   - every method whose receiver type, T or *T, implements an
//     interface with the method (one written in the program, an
//     exported top-level one of a package it imports, or error),
//     because calls through interfaces are not call-graph edges.
//
// Reach follows the call graph plus two edges the analyzer adds to
// its own copy, because the shared graph leaves them out on purpose:
// a function literal is reached when its enclosing function is (a
// literal stored in a struct field runs whenever its holder calls
// it), and a named function or method used as a value in a reached
// body is reached.
//
// A deliberate case carries //repolint:allow testonly -- <reason> on
// its declaration. An allowed declaration is a root, so the helpers it
// calls need no allow of their own. A package whose doc carries
// //repolint:test-support exists to serve tests and is skipped.
package testonly

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

const name = "testonly"

var Analyzer = &analysis.ProgramAnalyzer{
	Name: name,
	Doc:  "report functions and methods of non-main packages that no program reaches",
	Run:  run,
}

// line is one source line, where a justified allow applies.
type line struct {
	file string
	n    int
}

func run(pass *analysis.ProgramPass) error {
	g := callgraph.Build(pass.Prog)
	ifaces := interfacesByMethod(pass.Prog)
	allowed := map[line]bool{}
	support := map[*analysis.Package]bool{}
	var roots []callgraph.Key
	for _, pkg := range pass.Prog.Pkgs {
		support[pkg] = analysis.PackageAnnotated(pkg.Files, "test-support")
		for _, s := range analysis.Suppressions(pkg.Files) {
			if s.Analyzer == name && s.Reason != "" {
				p := pkg.Fset.Position(s.Pos)
				allowed[line{p.Filename, p.Line}] = true
				allowed[line{p.Filename, p.Line + 1}] = true
			}
		}
		roots = append(roots, initializerRefs(pkg)...)
	}
	for k, n := range g.Nodes {
		addValueEdges(g, n)
		if n.Pkg.Types.Name() == "main" {
			roots = append(roots, k)
			continue
		}
		if n.Decl == nil {
			continue
		}
		p := n.Pkg.Fset.Position(n.Decl.Pos())
		if allowed[line{p.Filename, p.Line}] ||
			n.Decl.Recv == nil && n.Decl.Name.Name == "init" ||
			n.Decl.Recv != nil && viaInterface(n, ifaces) {
			roots = append(roots, k)
		}
	}
	reached := g.Reachable(roots)

	for k, n := range g.Nodes {
		if n.Decl == nil || reached[k] || support[n.Pkg] {
			continue
		}
		pass.Reportf(n.Decl.Pos(),
			"%s is reached by no program; delete it, move it into a _test.go file, or allow it with a reason", k)
	}
	return nil
}

// addValueEdges adds to n an edge to every function literal nested
// directly in its body and to every named function or method its body
// mentions, called or not.
func addValueEdges(g *callgraph.Graph, n *callgraph.Node) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if x == n.Lit {
				return true
			}
			if k, ok := g.LitKey(x); ok {
				n.Calls = append(n.Calls, callgraph.Call{Pos: x.Pos(), Callee: k, Indirect: true})
			}
			return false // the literal's own references are its edges
		case *ast.Ident:
			if fn, ok := n.Pkg.Info.Uses[x].(*types.Func); ok {
				n.Calls = append(n.Calls, callgraph.Call{Pos: x.Pos(), Callee: callgraph.FuncKey(fn), Indirect: true})
			}
		}
		return true
	})
}

// initializerRefs returns every named function or method that a
// package-level variable initializer mentions, literals included.
func initializerRefs(pkg *analysis.Package) []callgraph.Key {
	var out []callgraph.Key
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			ast.Inspect(gd, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
						out = append(out, callgraph.FuncKey(fn))
					}
				}
				return true
			})
		}
	}
	return out
}

// interfacesByMethod collects, under each of their method names, the
// interface types written in the program's source, the exported ones
// declared at the top level of a package the program imports, and the
// predeclared error.
func interfacesByMethod(prog *analysis.Program) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				if it, ok := x.(*ast.InterfaceType); ok {
					if t, ok := pkg.Info.TypeOf(it).(*types.Interface); ok {
						add(t)
					}
				}
				return true
			})
		}
		for _, imp := range pkg.Types.Imports() {
			scope := imp.Scope()
			for _, id := range scope.Names() {
				if tn, ok := scope.Lookup(id).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						add(it)
					}
				}
			}
		}
	}
	return byName
}

// viaInterface reports whether method n may run through an interface:
// whether its receiver type, T or *T, implements one of ifaces that
// has a method of n's name.
func viaInterface(n *callgraph.Node, ifaces map[string][]*types.Interface) bool {
	fn, ok := n.Pkg.Info.Defs[n.Decl.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
