package sop

import "testing"

func TestMkLit(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.IsNeg() {
		t.Fatalf("MkLit(5,false) = var %d neg %v", l.Var(), l.IsNeg())
	}
	n := MkLit(5, true)
	if n.Var() != 5 || !n.IsNeg() {
		t.Fatalf("MkLit(5,true) = var %d neg %v", n.Var(), n.IsNeg())
	}
}

func TestNewCubeCanonical(t *testing.T) {
	c, ok := NewCube(Pos(3), Pos(1), Pos(2), Pos(1))
	if !ok {
		t.Fatal("unexpected contradiction")
	}
	want := Cube{Pos(1), Pos(2), Pos(3)}
	if !c.Equal(want) {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestNewCubeContradiction(t *testing.T) {
	if _, ok := NewCube(Pos(1), Neg(1)); ok {
		t.Fatal("x*x' should be rejected")
	}
}

func TestCubeContains(t *testing.T) {
	big := MustCube(Pos(1), Pos(2), Pos(3))
	sm := MustCube(Pos(1), Pos(3))
	if !big.Contains(sm) {
		t.Fatal("abc should contain ac")
	}
	if sm.Contains(big) {
		t.Fatal("ac should not contain abc")
	}
	if !big.Contains(Cube{}) {
		t.Fatal("every cube contains the unit cube")
	}
	other := MustCube(Pos(1), Neg(3))
	if big.Contains(other) {
		t.Fatal("abc does not contain a*c'")
	}
}

func TestCubeUnionMinus(t *testing.T) {
	a := MustCube(Pos(1), Pos(2))
	b := MustCube(Pos(2), Pos(3))
	u, ok := a.Union(b)
	if !ok || !u.Equal(MustCube(Pos(1), Pos(2), Pos(3))) {
		t.Fatalf("union got %v ok=%v", u, ok)
	}
	if _, ok := a.Union(MustCube(Neg(1))); ok {
		t.Fatal("a*a' should be contradiction")
	}
	m := u.Minus(b)
	if !m.Equal(MustCube(Pos(1))) {
		t.Fatalf("minus got %v", m)
	}
}

func TestCubeIntersect(t *testing.T) {
	a := MustCube(Pos(1), Pos(2), Neg(4))
	b := MustCube(Pos(2), Pos(3), Neg(4))
	got := a.Intersect(b)
	if !got.Equal(MustCube(Pos(2), Neg(4))) {
		t.Fatalf("intersect got %v", got)
	}
}

func TestCubeCompareOrdersByLengthThenLex(t *testing.T) {
	short := MustCube(Pos(9))
	long := MustCube(Pos(1), Pos(2))
	if short.Compare(long) >= 0 {
		t.Fatal("shorter cube must sort first")
	}
	a := MustCube(Pos(1), Pos(2))
	b := MustCube(Pos(1), Pos(3))
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Fatal("lexicographic tie-break broken")
	}
}

func TestExprCanonicalAndLiterals(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b + b*a + c")
	if f.NumCubes() != 2 {
		t.Fatalf("duplicate cube not merged: %v", f.Format(n.Fmt()))
	}
	if f.Literals() != 3 {
		t.Fatalf("literals = %d want 3", f.Literals())
	}
}

func TestExprAddMinus(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a + b")
	g := MustParseExpr(n, "b + c")
	sum := f.Add(g)
	if sum.NumCubes() != 3 {
		t.Fatalf("a+b+c expected, got %s", sum.Format(n.Fmt()))
	}
	diff := sum.Minus(g)
	if !diff.Equal(MustParseExpr(n, "a")) {
		t.Fatalf("minus got %s", diff.Format(n.Fmt()))
	}
}

func TestExprMul(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a + b")
	g := MustParseExpr(n, "c + d")
	got := f.Mul(g)
	want := MustParseExpr(n, "a*c + a*d + b*c + b*d")
	if !got.Equal(want) {
		t.Fatalf("got %s want %s", got.Format(n.Fmt()), want.Format(n.Fmt()))
	}
}

func TestExprMulDropsContradictions(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a + b")
	g := MustParseExpr(n, "a'")
	got := f.Mul(g)
	want := MustParseExpr(n, "a'*b")
	if !got.Equal(want) {
		t.Fatalf("got %s want %s", got.Format(n.Fmt()), want.Format(n.Fmt()))
	}
}

func TestCommonCubeAndCubeFree(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b*c + a*b*d")
	cc := f.CommonCube()
	if cc.Format(n.Fmt()) != "a*b" {
		t.Fatalf("common cube got %s", cc.Format(n.Fmt()))
	}
	if f.IsCubeFree() {
		t.Fatal("abc+abd is not cube-free")
	}
	free, removed := f.MakeCubeFree()
	if !removed.Equal(cc) {
		t.Fatalf("removed %v want %v", removed, cc)
	}
	if !free.Equal(MustParseExpr(n, "c + d")) || !free.IsCubeFree() {
		t.Fatalf("cube-free part got %s", free.Format(n.Fmt()))
	}
}

func TestIsCubeFreeEdgeCases(t *testing.T) {
	if Zero().IsCubeFree() {
		t.Fatal("constant 0 is not cube-free")
	}
	if !One().IsCubeFree() {
		t.Fatal("constant 1 is cube-free")
	}
	n := NewNames()
	single := MustParseExpr(n, "a*b")
	if single.IsCubeFree() {
		t.Fatal("a single non-unit cube is not cube-free")
	}
	sum := MustParseExpr(n, "a + b*c")
	if !sum.IsCubeFree() {
		t.Fatal("a + bc is cube-free")
	}
}

func TestSupportAndHas(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b + c'")
	a, _ := n.Lookup("a")
	c, _ := n.Lookup("c")
	sup := f.Support()
	if len(sup) != 3 {
		t.Fatalf("support size %d want 3", len(sup))
	}
	if !f.HasVar(a) || !f.HasVar(c) {
		t.Fatal("HasVar missing variable")
	}
}

func TestParseExprForms(t *testing.T) {
	n := NewNames()
	if !MustParseExpr(n, "0").IsZero() {
		t.Fatal("parse 0")
	}
	if !MustParseExpr(n, "1").IsOne() {
		t.Fatal("parse 1")
	}
	f := MustParseExpr(n, "!a*b + a*!b")
	g := MustParseExpr(n, "a'*b + a*b'")
	if !f.Equal(g) {
		t.Fatalf("! and ' should parse identically: %s vs %s",
			f.Format(n.Fmt()), g.Format(n.Fmt()))
	}
	// x*x' terms vanish rather than erroring.
	h := MustParseExpr(n, "a*a' + b")
	if !h.Equal(MustParseExpr(n, "b")) {
		t.Fatalf("contradictory term should vanish, got %s", h.Format(n.Fmt()))
	}
	if _, err := ParseExpr(n, "a + + b"); err == nil {
		t.Fatal("empty product term should error")
	}
}

func TestNamesRoundTrip(t *testing.T) {
	n := NewNames()
	v := n.Intern("foo")
	if got := n.Intern("foo"); got != v {
		t.Fatal("Intern not idempotent")
	}
	if n.Name(v) != "foo" {
		t.Fatalf("Name(%d) = %q", v, n.Name(v))
	}
	if _, ok := n.Lookup("bar"); ok {
		t.Fatal("Lookup of unknown name should fail")
	}
	if n.Name(Var(99)) != "v99" {
		t.Fatalf("fallback name = %q", n.Name(Var(99)))
	}
}

func TestFormat(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b' + c")
	got := f.Format(n.Fmt())
	if got != "c + a*b'" && got != "a*b' + c" {
		t.Fatalf("format got %q", got)
	}
	if Zero().Format(n.Fmt()) != "0" {
		t.Fatal("zero format")
	}
	if One().Format(n.Fmt()) != "1" {
		t.Fatal("one format")
	}
}
