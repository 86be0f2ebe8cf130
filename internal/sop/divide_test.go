package sop

import "testing"

func TestDivCube(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b*c + a*b*d + e")
	ab := MustCube(Pos(n.Intern("a")), Pos(n.Intern("b")))
	q := f.DivCube(ab)
	if !q.Equal(MustParseExpr(n, "c + d")) {
		t.Fatalf("f/ab got %s", q.Format(n.Fmt()))
	}
	if !f.DivCube(Cube{}).Equal(f) {
		t.Fatal("f/1 must be f")
	}
	missing := MustCube(Pos(n.Intern("z")))
	if !f.DivCube(missing).IsZero() {
		t.Fatal("division by absent cube must be 0")
	}
}

func TestWeakDivisionTextbook(t *testing.T) {
	// Classic example: f = ad + bcd + e, g = a + bc → q = d, r = e.
	n := NewNames()
	f := MustParseExpr(n, "a*d + b*c*d + e")
	g := MustParseExpr(n, "a + b*c")
	q, r := f.Div(g)
	if !q.Equal(MustParseExpr(n, "d")) {
		t.Fatalf("quotient got %s", q.Format(n.Fmt()))
	}
	if !r.Equal(MustParseExpr(n, "e")) {
		t.Fatalf("remainder got %s", r.Format(n.Fmt()))
	}
}

func TestWeakDivisionIdentity(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b + c*d")
	q, r := f.Div(f)
	if !q.IsOne() || !r.IsZero() {
		t.Fatalf("f/f got q=%s r=%s", q.Format(n.Fmt()), r.Format(n.Fmt()))
	}
	q, r = f.Div(One())
	if !q.Equal(f) || !r.IsZero() {
		t.Fatal("f/1 must be (f, 0)")
	}
	q, r = f.Div(Zero())
	if !q.IsZero() || !r.Equal(f) {
		t.Fatal("f/0 must be (0, f)")
	}
}

func TestWeakDivisionNoDivide(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b + c")
	g := MustParseExpr(n, "a + d")
	q, r := f.Div(g)
	// a*b is divisible by a, but no cube is divisible by d, so the
	// quotient intersection is empty.
	if !q.IsZero() || !r.Equal(f) {
		t.Fatalf("got q=%s r=%s", q.Format(n.Fmt()), r.Format(n.Fmt()))
	}
}

func TestWeakDivisionRecomposes(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*f + b*f + a*g + c*g + a*d*e + b*d*e + c*d*e")
	g := MustParseExpr(n, "a + b")
	q, r := f.Div(g)
	if q.IsZero() {
		t.Fatal("a+b divides the paper's F")
	}
	// f must equal q*g + r exactly (algebraic division invariant).
	back := q.Mul(g).Add(r)
	if !back.Equal(f) {
		t.Fatalf("q*g + r = %s != f", back.Format(n.Fmt()))
	}
	// And the paper says extracting X=a+b from F saves literals:
	// F = fX + deX + ag + cg + cde.
	if !q.Equal(MustParseExpr(n, "f + d*e")) {
		t.Fatalf("quotient got %s", q.Format(n.Fmt()))
	}
	if !r.Equal(MustParseExpr(n, "a*g + c*g + c*d*e")) {
		t.Fatalf("remainder got %s", r.Format(n.Fmt()))
	}
}

func TestSubstitutePaperExample(t *testing.T) {
	// Example 1.1: extracting X = a+b from F and G drops the network
	// from 33 to 25 literals.
	n := NewNames()
	F := MustParseExpr(n, "a*f + b*f + a*g + c*g + a*d*e + b*d*e + c*d*e")
	G := MustParseExpr(n, "a*f + b*f + a*c*e + b*c*e")
	H := MustParseExpr(n, "a*d*e + c*d*e")
	if lc := F.Literals() + G.Literals() + H.Literals(); lc != 33 {
		t.Fatalf("initial literal count %d want 33", lc)
	}
	X := n.Intern("X")
	g := MustParseExpr(n, "a + b")
	F2, ok := F.Substitute(X, g)
	if !ok {
		t.Fatal("a+b should divide F")
	}
	G2, ok := G.Substitute(X, g)
	if !ok {
		t.Fatal("a+b should divide G")
	}
	// New network: F2, G2, H, X = a+b.
	lc := F2.Literals() + G2.Literals() + H.Literals() + g.Literals()
	if lc != 25 {
		t.Fatalf("after extraction literal count %d want 25 (F=%s, G=%s)",
			lc, F2.Format(n.Fmt()), G2.Format(n.Fmt()))
	}
}

func TestSubstituteNoChange(t *testing.T) {
	n := NewNames()
	f := MustParseExpr(n, "a*b")
	g := MustParseExpr(n, "c + d")
	got, ok := f.Substitute(n.Intern("X"), g)
	if ok || !got.Equal(f) {
		t.Fatal("substitution of non-divisor must be a no-op")
	}
}

// Substitute re-expresses f in terms of a new variable x whose
// function is g: it returns q·x + r when g algebraically divides f
// with a non-zero quotient, and f unchanged otherwise. The boolean
// result reports whether a substitution happened.
func (f Expr) Substitute(x Var, g Expr) (Expr, bool) {
	q, r := f.Div(g)
	if q.IsZero() {
		return f, false
	}
	return q.MulCube(Cube{Pos(x)}).Add(r), true
}
