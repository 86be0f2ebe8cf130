package factored

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sop"
)

func TestConstructorsSimplify(t *testing.T) {
	a, b := Leaf(sop.Pos(0)), Leaf(sop.Pos(1))
	if And(a, One()).Literals() != 1 {
		t.Fatal("And with 1 must drop the constant")
	}
	if And(a, Zero()).Kind != ZeroKind {
		t.Fatal("And with 0 must be 0")
	}
	if Or(a, Zero()).Literals() != 1 {
		t.Fatal("Or with 0 must drop the constant")
	}
	if Or(a, One()).Kind != OneKind {
		t.Fatal("Or with 1 must be 1")
	}
	// Flattening.
	f := And(a, And(b, a))
	if len(f.Args) != 3 {
		t.Fatalf("nested And not flattened: %v", f)
	}
	g := Or(a, Or(b, a))
	if len(g.Args) != 3 {
		t.Fatalf("nested Or not flattened: %v", g)
	}
	if And().Kind != OneKind || Or().Kind != ZeroKind {
		t.Fatal("empty product/sum identities wrong")
	}
}

func TestLiteralsAndDepth(t *testing.T) {
	n := sop.NewNames()
	a, b, c := sop.Pos(n.Intern("a")), sop.Pos(n.Intern("b")), sop.Pos(n.Intern("c"))
	// a*(b + c): 3 literals, depth 3.
	f := And(Leaf(a), Or(Leaf(b), Leaf(c)))
	if f.Literals() != 3 {
		t.Fatalf("literals = %d", f.Literals())
	}
	if f.Depth() != 3 {
		t.Fatalf("depth = %d", f.Depth())
	}
	if Zero().Literals() != 0 || One().Depth() != 1 {
		t.Fatal("constant metrics wrong")
	}
}

func TestFormatPrecedence(t *testing.T) {
	n := sop.NewNames()
	a, b, c := sop.Pos(n.Intern("a")), sop.Pos(n.Intern("b")), sop.Neg(n.Intern("c"))
	f := And(Leaf(a), Or(Leaf(b), Leaf(c)))
	got := f.Format(n.Fmt())
	if got != "a*(b + c')" {
		t.Fatalf("format = %q", got)
	}
}

func TestFactorClassicExample(t *testing.T) {
	// F = af + bf + ag + cg + ade + bde + cde (paper Eq. 1's F)
	// has a well-known factored form with far fewer literals than
	// its 19-literal SOP. Expansion must reproduce F exactly.
	names := sop.NewNames()
	F := sop.MustParseExpr(names, "a*f + b*f + a*g + c*g + a*d*e + b*d*e + c*d*e")
	form := Factor(F)
	if !form.Expand().Equal(F) {
		t.Fatalf("expand mismatch: %s", form.Format(names.Fmt()))
	}
	if form.Literals() >= F.Literals() {
		t.Fatalf("factoring did not reduce literals: %d vs %d (%s)",
			form.Literals(), F.Literals(), form.Format(names.Fmt()))
	}
	// (a+b)(f+de) + (a+c)(g?)... the standard result is around 12
	// literals; accept anything at or below 14.
	if form.Literals() > 14 {
		t.Fatalf("weak factoring: %d literals (%s)",
			form.Literals(), form.Format(names.Fmt()))
	}
}

func TestFactorSingleCubeAndConstants(t *testing.T) {
	names := sop.NewNames()
	f := sop.MustParseExpr(names, "a*b*c")
	form := Factor(f)
	if form.Literals() != 3 || !form.Expand().Equal(f) {
		t.Fatalf("cube factoring broken: %s", form.Format(names.Fmt()))
	}
	if Factor(sop.Zero()).Kind != ZeroKind {
		t.Fatal("0 must factor to 0")
	}
	if Factor(sop.One()).Kind != OneKind {
		t.Fatal("1 must factor to 1")
	}
}

func TestFactorCommonCube(t *testing.T) {
	names := sop.NewNames()
	f := sop.MustParseExpr(names, "a*b*c + a*b*d")
	form := Factor(f)
	if !form.Expand().Equal(f) {
		t.Fatal("expand mismatch")
	}
	// ab(c+d): 4 literals.
	if form.Literals() != 4 {
		t.Fatalf("literals = %d want 4 (%s)", form.Literals(), form.Format(names.Fmt()))
	}
}

func TestFactorLiteralFallback(t *testing.T) {
	// f = ab + ac' + a'd: kernels exist for a; ensure whatever path
	// taken expands correctly with both phases involved.
	names := sop.NewNames()
	f := sop.MustParseExpr(names, "a*b + a*c' + a'*d")
	form := Factor(f)
	if !form.Expand().Equal(f) {
		t.Fatalf("expand mismatch: %s", form.Format(names.Fmt()))
	}
	if form.Literals() > f.Literals() {
		t.Fatal("factoring increased literals")
	}
}

// Property: factoring is always functionally exact (the expanded
// form computes the same Boolean function — factored forms may
// simplify absorbed cubes, e.g. 1 + v2 collapses to 1, so structural
// SOP equality is too strict) and never increases the literal count.
func TestQuickFactorExact(t *testing.T) {
	cfg := &quick.Config{MaxCount: 250}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randExpr(r)
		form := Factor(f)
		if !equivalent(form.Expand(), f) {
			return false
		}
		return form.Literals() <= f.Literals()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// equivalent exhaustively compares two SOPs over their joint support
// (test inputs keep supports small).
func equivalent(a, b sop.Expr) bool {
	vars := map[sop.Var]bool{}
	for _, v := range a.Support() {
		vars[v] = true
	}
	for _, v := range b.Support() {
		vars[v] = true
	}
	var vs []sop.Var
	for v := range vars {
		vs = append(vs, v)
	}
	if len(vs) > 16 {
		panic("support too large for exhaustive check")
	}
	for bits := 0; bits < 1<<uint(len(vs)); bits++ {
		assign := map[sop.Var]bool{}
		for i, v := range vs {
			assign[v] = bits>>uint(i)&1 == 1
		}
		if evalSOP(a, assign) != evalSOP(b, assign) {
			return false
		}
	}
	return true
}

func evalSOP(f sop.Expr, assign map[sop.Var]bool) bool {
	for _, c := range f.Cubes() {
		sat := true
		for _, l := range c {
			v := assign[l.Var()]
			if l.IsNeg() {
				v = !v
			}
			if !v {
				sat = false
				break
			}
		}
		if sat {
			return true
		}
	}
	return false
}

// Property: factored depth is sane (bounded by a generous function of
// the SOP size) and Format round-trips through the tree builders.
func TestQuickFactorDepthBounded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randExpr(r)
		form := Factor(f)
		return form.Depth() <= 2*f.Literals()+2
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func randExpr(r *rand.Rand) sop.Expr {
	nc := 1 + r.Intn(7)
	cubes := make([]sop.Cube, 0, nc)
	for i := 0; i < nc; i++ {
		nl := 1 + r.Intn(4)
		lits := make([]sop.Lit, 0, nl)
		for j := 0; j < nl; j++ {
			lits = append(lits, sop.MkLit(sop.Var(r.Intn(6)), r.Intn(4) == 0))
		}
		if c, ok := sop.NewCube(lits...); ok {
			cubes = append(cubes, c)
		}
	}
	e := sop.NewExpr(cubes...)
	if e.IsZero() {
		return sop.One()
	}
	return e
}

// Depth returns the tree depth (leaves and constants are depth 1).
func (f *Form) Depth() int {
	if f.Kind == LeafKind || f.Kind == ZeroKind || f.Kind == OneKind {
		return 1
	}
	d := 0
	for _, a := range f.Args {
		if ad := a.Depth(); ad > d {
			d = ad
		}
	}
	return d + 1
}

// Expand multiplies the form back out into a canonical SOP — the
// correctness anchor: Factor(f).Expand() must equal f.
func (f *Form) Expand() sop.Expr {
	switch f.Kind {
	case ZeroKind:
		return sop.Zero()
	case OneKind:
		return sop.One()
	case LeafKind:
		return sop.NewExpr(sop.Cube{f.Lit})
	case AndKind:
		out := sop.One()
		for _, a := range f.Args {
			out = out.Mul(a.Expand())
		}
		return out
	default: // OrKind
		out := sop.Zero()
		for _, a := range f.Args {
			out = out.Add(a.Expand())
		}
		return out
	}
}
