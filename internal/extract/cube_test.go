package extract

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/equiv"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

func TestCubeExtractFindsDistantSharing(t *testing.T) {
	// The shared cube sits in the first and last nodes, with 40
	// unrelated nodes between them. Every cube is a row of the
	// matrix, so the cubes containing ab are found however far
	// apart their nodes are.
	nw := network.New("far")
	for _, in := range []string{"a", "b", "c", "d", "e", "f"} {
		nw.AddInput(in)
	}
	nw.MustAddNode("first", sop.MustParseExpr(nw.Names, "a*b*c + a*b*d"))
	for i := 0; i < 40; i++ {
		nw.MustAddNode(fmt.Sprintf("mid%d", i), sop.MustParseExpr(nw.Names, "e*f"))
	}
	nw.MustAddNode("last", sop.MustParseExpr(nw.Names, "a*b*e + a*b*f"))
	nw.AddOutput("first")
	nw.AddOutput("last")
	ref := nw.Clone()
	res := CubeExtract(nw, nil, 0, Options{})
	if res.Extracted == 0 {
		t.Fatal("shared cube ab not extracted")
	}
	if err := equiv.Check(ref, nw, equiv.Options{ExhaustiveLimit: 6, RandomVectors: 128}); err != nil {
		t.Fatal(err)
	}
}

// TestCubeExtractMatchesExhaustiveOracle checks one search of
// CubeExtract on seeded small networks against brute force: the best
// gain k·(|C|−1) − |C| over every literal set C of 2 to MaxCols
// literals that k ≥ 2 cubes contain, or 0 when no gain is positive.
// Extracting that one cube must save exactly its gain and keep every
// output's function.
func TestCubeExtractMatchesExhaustiveOracle(t *testing.T) {
	const maxCols = 5
	opt := Options{Rect: rect.Config{MaxCols: maxCols, MaxVisits: 1 << 22}, BatchK: 1}
	positive := 0
	for seed := int64(0); seed < 200; seed++ {
		nw := randomCubeNetwork(rand.New(rand.NewSource(seed)))
		want := bruteForceCubeGain(nw, maxCols)
		if want > 0 {
			positive++
		}
		ref := nw.Clone()
		res := CubeExtract(nw, nil, 1, opt)
		if res.Iterations != 1 || res.GainEstimate != want {
			t.Fatalf("seed %d: %d searches found gain %d, brute force %d", seed, res.Iterations, res.GainEstimate, want)
		}
		if saved := ref.Literals() - nw.Literals(); saved != want {
			t.Fatalf("seed %d: extraction saved %d literals, gain %d", seed, saved, want)
		}
		if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if positive < 50 {
		t.Fatalf("only %d of 200 seeds have a common cube worth extracting", positive)
	}
}

// randomCubeNetwork returns 3 or 4 outputs of 3 to 6 cubes each, every
// cube of 1 to 5 literal draws over six inputs in either phase.
func randomCubeNetwork(r *rand.Rand) *network.Network {
	nw := network.New("cubes")
	var ins []sop.Var
	for _, in := range []string{"a", "b", "c", "d", "e", "f"} {
		ins = append(ins, nw.AddInput(in))
	}
	for i := 0; i < 3+r.Intn(2); i++ {
		var cubes []sop.Cube
		for j := 0; j < 3+r.Intn(4); j++ {
			var lits []sop.Lit
			for k := 0; k < 1+r.Intn(5); k++ {
				lits = append(lits, sop.MkLit(ins[r.Intn(len(ins))], r.Intn(4) == 0))
			}
			if c, ok := sop.NewCube(lits...); ok {
				cubes = append(cubes, c)
			}
		}
		name := fmt.Sprintf("o%d", i)
		nw.MustAddNode(name, sop.NewExpr(cubes...))
		nw.AddOutput(name)
	}
	return nw
}

// bruteForceCubeGain enumerates every set of 2 to maxCols literals of
// the network's cubes and returns the best gain of extracting one that
// at least two cubes contain, or 0 when none gains.
func bruteForceCubeGain(nw *network.Network, maxCols int) int {
	var cubes []sop.Cube
	var lits []sop.Lit
	for _, v := range nw.NodeVars() {
		for _, c := range nw.Node(v).Fn.Cubes() {
			cubes = append(cubes, c)
			lits = append(lits, c...)
		}
	}
	slices.Sort(lits)
	lits = slices.Compact(lits)
	best := 0
	for set := 1; set < 1<<len(lits); set++ {
		w := bits.OnesCount(uint(set))
		if w < 2 || w > maxCols {
			continue
		}
		var c sop.Cube
		for i, l := range lits {
			if set&(1<<i) != 0 {
				c = append(c, l)
			}
		}
		k := 0
		for _, fc := range cubes {
			if fc.Contains(c) {
				k++
			}
		}
		if k >= 2 {
			best = max(best, k*(w-1)-w)
		}
	}
	return best
}

// TestCubeExtractSkipsStaleRectangle builds a network whose second
// best rectangle is stale. The first extracts ax from r and the five
// u nodes, so r's cube becomes [ax]·p·q·t, while its matrix row still
// holds x, now worth 0. The next best rectangle, xpqt over r and s,
// then counts r through its fresh p, q and t, but only s's cube still
// contains xpqt, and extracting it would cost a literal.
func TestCubeExtractSkipsStaleRectangle(t *testing.T) {
	nw := network.New("stale")
	for _, in := range []string{"a", "x", "p", "q", "t", "z", "y0", "y1", "y2", "y3", "y4"} {
		nw.AddInput(in)
	}
	nw.MustAddNode("r", sop.MustParseExpr(nw.Names, "a*x*p*q*t"))
	nw.MustAddNode("s", sop.MustParseExpr(nw.Names, "x*p*q*t*z"))
	nw.AddOutput("r")
	nw.AddOutput("s")
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("u%d", i)
		nw.MustAddNode(name, sop.MustParseExpr(nw.Names, fmt.Sprintf("a*x*y%d", i)))
		nw.AddOutput(name)
	}
	ref := nw.Clone()
	res := CubeExtract(nw, nil, 0, Options{})
	if res.Extracted != 1 || nw.Literals() != ref.Literals()-4 {
		t.Fatalf("extracted %d cubes, LC %d -> %d; want 1 cube saving 4", res.Extracted, ref.Literals(), nw.Literals())
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCubeExtractMaxIters(t *testing.T) {
	nw := network.New("t")
	for _, in := range []string{"a", "b", "c", "d", "e"} {
		nw.AddInput(in)
	}
	nw.MustAddNode("x", sop.MustParseExpr(nw.Names, "a*b*c + a*b*d + c*d*e"))
	nw.MustAddNode("y", sop.MustParseExpr(nw.Names, "a*b*e + c*d*a"))
	nw.AddOutput("x")
	nw.AddOutput("y")
	res := CubeExtract(nw, nil, 1, Options{})
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d want 1", res.Iterations)
	}
}

func TestCubeExtractWorkCounted(t *testing.T) {
	nw := network.PaperExample()
	res := CubeExtract(nw, nil, 0, Options{})
	if res.Work.SearchVisits == 0 {
		t.Fatal("search work not counted")
	}
}

func TestWorkAddAndTotal(t *testing.T) {
	a := Work{KernelPairs: 1, MatrixEntries: 2, SearchVisits: 3, DivisionCubes: 4}
	b := Work{KernelPairs: 10, MatrixEntries: 20, SearchVisits: 30, DivisionCubes: 40}
	a.Add(b)
	if a.KernelPairs != 11 || a.DivisionCubes != 44 {
		t.Fatalf("Add broken: %+v", a)
	}
	if a.Total() != 11+22+33+44 {
		t.Fatalf("Total = %d", a.Total())
	}
}

func TestGroupRowsDeterministic(t *testing.T) {
	nw := network.PaperExample()
	m := buildPaperMatrix(nw)
	// Build a fake rectangle over rows of two nodes.
	var rows []int64
	for _, r := range m.Rows() {
		rows = append(rows, r.ID)
	}
	r := rectOf(rows[:4], m.Index().ColIDs[:2])
	g1 := GroupRows(m, r)
	g2 := GroupRows(m, r)
	if len(g1) != len(g2) {
		t.Fatal("nondeterministic grouping")
	}
	for i := range g1 {
		if g1[i].Node != g2[i].Node {
			t.Fatal("group order differs between calls")
		}
	}
}

func buildPaperMatrix(nw *network.Network) *kcm.Matrix {
	return kcm.Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
}

func rectOf(rows, cols []int64) rect.Rect {
	return rect.Rect{Rows: rows, Cols: cols, Gain: 1}
}
