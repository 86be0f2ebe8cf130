package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sop"
)

// pairSet renders pairs as "cokernel => kernel" strings for matching.
func pairSet(n *sop.Names, pairs []Pair) map[string]bool {
	m := map[string]bool{}
	for _, p := range pairs {
		m[p.CoKernel.Format(n.Fmt())+" => "+p.Kernel.Format(n.Fmt())] = true
	}
	return m
}

func TestKernelsOfPaperG(t *testing.T) {
	// G = af + bf + ace + bce; paper §2: kernels (co-kernels) are
	// ce+f (a, b) and a+b (f, ce).
	n := sop.NewNames()
	G := sop.MustParseExpr(n, "a*f + b*f + a*c*e + b*c*e")
	got := pairSet(n, All(G, Options{}))
	want := []string{
		"a => f + c*e",
		"b => f + c*e",
		"f => a + b",
		"c*e => a + b",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d kernels %v, want %d", len(got), got, len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("missing kernel %q in %v", w, got)
		}
	}
}

func TestKernelsOfPaperF(t *testing.T) {
	// F's co-kernels per Figure 2 rows: a, b, de, f, c, g.
	n := sop.NewNames()
	F := sop.MustParseExpr(n, "a*f + b*f + a*g + c*g + a*d*e + b*d*e + c*d*e")
	got := pairSet(n, All(F, Options{}))
	want := []string{
		"a => f + g + d*e",
		"b => f + d*e",
		"d*e => a + b + c",
		"f => a + b",
		"c => g + d*e",
		"g => a + c",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d kernels %v want %d", len(got), got, len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("missing kernel %q in %v", w, got)
		}
	}
}

func TestKernelsOfPaperH(t *testing.T) {
	// H = ade + cde: single kernel a+c with co-kernel de.
	n := sop.NewNames()
	H := sop.MustParseExpr(n, "a*d*e + c*d*e")
	pairs := All(H, Options{})
	if len(pairs) != 1 {
		t.Fatalf("got %d kernels, want 1", len(pairs))
	}
	p := pairs[0]
	if p.CoKernel.Format(n.Fmt()) != "d*e" || p.Kernel.Format(n.Fmt()) != "a + c" {
		t.Fatalf("got %s => %s", p.CoKernel.Format(n.Fmt()), p.Kernel.Format(n.Fmt()))
	}
}

func TestIncludeTrivial(t *testing.T) {
	n := sop.NewNames()
	G := sop.MustParseExpr(n, "a*f + b*f + a*c*e + b*c*e")
	with := All(G, Options{IncludeTrivial: true})
	without := All(G, Options{})
	if len(with) != len(without)+1 {
		t.Fatalf("trivial kernel not added: %d vs %d", len(with), len(without))
	}
	found := false
	for _, p := range with {
		if p.CoKernel.IsUnit() && p.Kernel.Equal(G) {
			found = true
		}
	}
	if !found {
		t.Fatal("trivial kernel (G itself) missing")
	}
}

func TestTrivialOfNonCubeFree(t *testing.T) {
	// H is not cube-free, so even IncludeTrivial yields co-kernel
	// de, never the unit cube.
	n := sop.NewNames()
	H := sop.MustParseExpr(n, "a*d*e + c*d*e")
	for _, p := range All(H, Options{IncludeTrivial: true}) {
		if p.CoKernel.IsUnit() {
			t.Fatal("non-cube-free function cannot be its own kernel")
		}
	}
}

func TestMaxDepth(t *testing.T) {
	n := sop.NewNames()
	// Deeply factorable: a(c(d+e) + f) + b in SOP has the kernel
	// d+e nested at depth 2 inside cd+ce+f at depth 1.
	f := sop.MustParseExpr(n, "a*c*d + a*c*e + a*f + b")
	all := All(f, Options{})
	shallow := All(f, Options{MaxDepth: 1})
	if len(shallow) >= len(all) {
		t.Fatalf("MaxDepth=1 should prune: %d vs %d", len(shallow), len(all))
	}
	for _, p := range shallow {
		if p.Depth > 1 {
			t.Fatalf("kernel at depth %d despite MaxDepth=1", p.Depth)
		}
	}
}

func TestSmallFunctionsHaveNoKernels(t *testing.T) {
	n := sop.NewNames()
	if got := All(sop.MustParseExpr(n, "a*b"), Options{}); len(got) != 0 {
		t.Fatalf("single cube has no kernels, got %v", got)
	}
	if got := All(sop.Zero(), Options{}); len(got) != 0 {
		t.Fatal("constant 0 has no kernels")
	}
	if got := All(sop.One(), Options{}); len(got) != 0 {
		t.Fatal("constant 1 has no kernels")
	}
}

// Property: every generated pair satisfies the kernel definition:
// Kernel = f/CoKernel and Kernel is cube-free with >= 2 cubes.
func TestQuickKernelDefinition(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randExpr(r)
		for _, p := range All(f, Options{IncludeTrivial: true}) {
			if p.Kernel.NumCubes() < 2 {
				return false
			}
			if !p.Kernel.IsCubeFree() {
				return false
			}
			if !f.DivCube(p.CoKernel).Equal(p.Kernel) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: kerneling is exhaustive for co-kernels: for every cube c
// made of <= 2 literals of f's support, if f/c is cube-free with >= 2
// cubes then (f/c, c) is among the generated pairs.
func TestQuickKernelExhaustive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randExpr(r)
		pairs := All(f, Options{IncludeTrivial: true})
		byKey := map[string]bool{}
		for _, p := range pairs {
			byKey[p.CoKernel.String()] = true
		}
		sup := f.Support()
		var cands []sop.Cube
		for i, v := range sup {
			cands = append(cands, sop.Cube{sop.Pos(v)})
			for _, w := range sup[i+1:] {
				c, ok := sop.NewCube(sop.Pos(v), sop.Pos(w))
				if ok {
					cands = append(cands, c)
				}
			}
		}
		for _, c := range cands {
			q := f.DivCube(c)
			if q.NumCubes() >= 2 && q.IsCubeFree() {
				if !byKey[c.String()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func randExpr(r *rand.Rand) sop.Expr {
	nc := 2 + r.Intn(6)
	cubes := make([]sop.Cube, 0, nc)
	for i := 0; i < nc; i++ {
		nl := 1 + r.Intn(3)
		lits := make([]sop.Lit, 0, nl)
		for j := 0; j < nl; j++ {
			lits = append(lits, sop.Pos(sop.Var(r.Intn(7))))
		}
		c, ok := sop.NewCube(lits...)
		if ok {
			cubes = append(cubes, c)
		}
	}
	return sop.NewExpr(cubes...)
}

func BenchmarkKernelsPaperF(b *testing.B) {
	n := sop.NewNames()
	F := sop.MustParseExpr(n, "a*f + b*f + a*g + c*g + a*d*e + b*d*e + c*d*e")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		All(F, Options{})
	}
}
