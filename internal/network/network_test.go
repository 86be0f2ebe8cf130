package network

import (
	"testing"

	"repro/internal/sop"
)

func TestBuildAndLiterals(t *testing.T) {
	nw := PaperExample()
	if nw.Literals() != 33 {
		t.Fatalf("Eq.1 network LC = %d want 33", nw.Literals())
	}
	if nw.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", nw.NumNodes())
	}
	if len(nw.Inputs()) != 7 || len(nw.Outputs()) != 3 {
		t.Fatalf("io counts %d/%d", len(nw.Inputs()), len(nw.Outputs()))
	}
	if err := nw.CheckDriven(); err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeErrors(t *testing.T) {
	nw := New("t")
	nw.AddInput("a")
	if _, err := nw.AddNode("a", sop.Zero()); err == nil {
		t.Fatal("shadowing an input must fail")
	}
	if _, err := nw.AddNode("n", sop.Zero()); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode("n", sop.Zero()); err == nil {
		t.Fatal("duplicate node must fail")
	}
}

func TestNewNodeVarFreshNames(t *testing.T) {
	nw := New("t")
	a := nw.AddInput("a")
	f := sop.NewExpr(sop.Cube{sop.Pos(a)})
	v1 := nw.NewNodeVar(f)
	v2 := nw.NewNodeVar(f)
	if v1 == v2 {
		t.Fatal("NewNodeVar must allocate distinct vars")
	}
	if nw.Names.Name(v1) == nw.Names.Name(v2) {
		t.Fatal("generated names must differ")
	}
}

func TestFaninsFanouts(t *testing.T) {
	nw := PaperExample()
	names := nw.Names
	F, _ := names.Lookup("F")
	a, _ := names.Lookup("a")
	fanins := nw.Node(F).Fn.Support()
	if len(fanins) != 7 {
		t.Fatalf("F has %d fanins, want 7 (a..g)", len(fanins))
	}
	fo := nw.Fanouts()
	// a feeds F, G, H.
	if len(fo[a]) != 3 {
		t.Fatalf("fanouts of a = %d want 3", len(fo[a]))
	}
	if len(fo[F]) != 0 {
		t.Fatal("F is an output, fans out to nothing")
	}
}

func TestTopoSortAndCycle(t *testing.T) {
	nw := New("t")
	a := nw.AddInput("a")
	x := nw.MustAddNode("x", sop.NewExpr(sop.Cube{sop.Pos(a)}))
	_ = nw.MustAddNode("y", sop.NewExpr(sop.Cube{sop.Pos(x)}))
	order, err := nw.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || nw.Names.Name(order[0]) != "x" {
		t.Fatalf("topo order wrong: %v", order)
	}
	// Introduce a cycle x -> y -> x.
	y, _ := nw.Names.Lookup("y")
	nw.SetFn(x, sop.NewExpr(sop.Cube{sop.Pos(y)}))
	if _, err := nw.TopoSort(); err == nil {
		t.Fatal("cycle must be detected")
	}
}

func TestCheckDrivenFailures(t *testing.T) {
	nw := New("t")
	nw.AddInput("a")
	z := nw.Names.Intern("ghost")
	nw.MustAddNode("n", sop.NewExpr(sop.Cube{sop.Pos(z)}))
	if err := nw.CheckDriven(); err == nil {
		t.Fatal("reading undriven var must fail CheckDriven")
	}
	nw2 := New("t2")
	nw2.AddOutput("nowhere")
	if err := nw2.CheckDriven(); err == nil {
		t.Fatal("undriven output must fail CheckDriven")
	}
}

func TestCloneIsDeep(t *testing.T) {
	nw := PaperExample()
	cp := nw.Clone()
	F, _ := nw.Names.Lookup("F")
	cp.SetFn(F, sop.Zero())
	if nw.Node(F).Fn.IsZero() {
		t.Fatal("mutating clone changed original")
	}
	if cp.Literals() == nw.Literals() {
		t.Fatal("clone should have diverged")
	}
	cp2 := nw.Clone()
	if cp2.Literals() != nw.Literals() || cp2.NumNodes() != nw.NumNodes() {
		t.Fatal("fresh clone must match original")
	}
}

func TestRemoveNode(t *testing.T) {
	nw := PaperExample()
	H, _ := nw.Names.Lookup("H")
	nw.RemoveNode(H)
	if nw.NumNodes() != 2 {
		t.Fatalf("NumNodes after remove = %d", nw.NumNodes())
	}
	if nw.Node(H) != nil {
		t.Fatal("node still present")
	}
	nw.RemoveNode(H) // idempotent
	if nw.NumNodes() != 2 {
		t.Fatal("double remove changed count")
	}
}

func TestEvalPaperNetwork(t *testing.T) {
	nw := PaperExample()
	in := func(names ...string) map[sop.Var]bool {
		m := map[sop.Var]bool{}
		for _, s := range names {
			v, ok := nw.Names.Lookup(s)
			if !ok {
				t.Fatalf("unknown input %s", s)
			}
			m[v] = true
		}
		return m
	}
	// a=f=1 -> F=1 (af), G=1 (af), H=0.
	got, err := nw.EvalOutputs(in("a", "f"))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outputs(af) = %v want %v", got, want)
		}
	}
	// c=d=e=1 -> F=1 (cde), G=0, H=1 (cde).
	got, err = nw.EvalOutputs(in("c", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	want = []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outputs(cde) = %v want %v", got, want)
		}
	}
	// all zero -> all zero.
	got, err = nw.EvalOutputs(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] {
			t.Fatalf("outputs(0) = %v want all false", got)
		}
	}
}

func TestEvalMultiLevelWithNegation(t *testing.T) {
	nw := New("t")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	x := nw.MustAddNode("x", sop.MustParseExpr(nw.Names, "a*b'"))
	nw.MustAddNode("y", sop.NewExpr(sop.Cube{sop.Neg(x)}))
	nw.AddOutput("y")
	out, err := nw.EvalOutputs(map[sop.Var]bool{a: true, b: false})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] { // x = a*b' = 1, y = x' = 0
		t.Fatal("y should be 0 when a=1,b=0")
	}
	out, _ = nw.EvalOutputs(map[sop.Var]bool{a: true, b: true})
	if !out[0] { // x = 0, y = 1
		t.Fatal("y should be 1 when a=1,b=1")
	}
}

func TestSortedNodeVars(t *testing.T) {
	nw := New("t")
	nw.AddInput("a")
	f := sop.MustParseExpr(nw.Names, "a")
	nw.MustAddNode("zz", f)
	nw.MustAddNode("aa", f)
	vs := nw.SortedNodeVars()
	if nw.Names.Name(vs[0]) != "aa" || nw.Names.Name(vs[1]) != "zz" {
		t.Fatalf("sorted order wrong: %v", vs)
	}
}
