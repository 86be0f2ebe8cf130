package rect

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

func paperMatrix(t *testing.T) (*network.Network, *kcm.Matrix) {
	t.Helper()
	nw := network.PaperExample()
	m := kcm.Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	return nw, m
}

func TestBestRectanglePaper(t *testing.T) {
	// Example 1.1: the best first extraction is X = a+b, shared by
	// F (rows f, de) and G (rows f, ce), saving 8 literals.
	nw, m := paperMatrix(t)
	best, stats := Best(m, Config{}, WeightValuer)
	if best.Rows == nil {
		t.Fatal("no rectangle found")
	}
	if best.Gain != 8 {
		t.Fatalf("gain = %d want 8 (rect %+v)", best.Gain, best)
	}
	if len(best.Cols) != 2 || len(best.Rows) != 4 {
		t.Fatalf("shape = %dx%d want 4x2", len(best.Rows), len(best.Cols))
	}
	kernel := kernelOf(m, best)
	if kernel != "a + b" {
		t.Fatalf("kernel = %q want a + b", kernel)
	}
	if stats.Evals == 0 || stats.Visits == 0 {
		t.Fatal("stats not recorded")
	}
	_ = nw
}

func kernelOf(m *kcm.Matrix, r Rect) string {
	nw := network.PaperExample()
	s := ""
	for i, c := range r.Cols {
		if i > 0 {
			s += " + "
		}
		s += m.Col(c).Cube.Format(nw.Names.Fmt())
	}
	return s
}

func TestCoveredValuerSuppresses(t *testing.T) {
	// Cover all of F's cubes that the a+b rectangle would claim;
	// the best a+b rectangle shrinks to G's rows with gain 3.
	nw, m := paperMatrix(t)
	F, _ := nw.Names.Lookup("F")
	covered := map[int64]bool{}
	for _, r := range m.Rows() {
		if r.Node == F {
			for _, e := range r.Entries {
				covered[e.CubeID] = true
			}
		}
	}
	best, _ := Best(m, Config{}, CoveredValuer(covered))
	if best.Rows == nil {
		t.Fatal("expected a rectangle on G rows")
	}
	for _, rid := range best.Rows {
		if m.Row(rid).Node == F {
			t.Fatalf("covered F row %d still selected", rid)
		}
	}
	if best.Gain != 3 {
		t.Fatalf("gain = %d want 3", best.Gain)
	}
}

func TestLeftmostColumnSplitRecombines(t *testing.T) {
	// Figure 1: distributing root columns across p workers and
	// reducing their local winners must reproduce the sequential
	// best exactly, for any p.
	_, m := paperMatrix(t)
	seq, _ := Best(m, Config{}, WeightValuer)
	for p := 1; p <= 7; p++ {
		slices := SplitColumns(m, p)
		var winner Rect
		for _, sl := range slices {
			if len(sl) == 0 {
				continue
			}
			local, _ := Best(m, Config{LeftmostCols: sl}, WeightValuer)
			if CompareRects(local, winner) < 0 {
				winner = local
			}
		}
		if CompareRects(winner, seq) != 0 {
			t.Fatalf("p=%d: split winner %+v != sequential %+v", p, winner, seq)
		}
	}
}

func TestSplitColumnsPartition(t *testing.T) {
	_, m := paperMatrix(t)
	for p := 1; p <= 5; p++ {
		slices := SplitColumns(m, p)
		if len(slices) != p {
			t.Fatalf("want %d slices", p)
		}
		seen := map[int64]bool{}
		total := 0
		for _, sl := range slices {
			for _, id := range sl {
				if seen[id] {
					t.Fatalf("column %d in two slices", id)
				}
				seen[id] = true
				total++
			}
		}
		if total != len(m.Cols()) {
			t.Fatalf("slices cover %d of %d columns", total, len(m.Cols()))
		}
	}
}

func TestMaxVisitsTruncates(t *testing.T) {
	_, m := paperMatrix(t)
	_, stats := Best(m, Config{MaxVisits: 3}, WeightValuer)
	if !stats.Truncated {
		t.Fatal("expected truncation with MaxVisits=3")
	}
	if stats.Visits > 4 {
		t.Fatalf("visits %d exceeded cap", stats.Visits)
	}
}

func TestMaxColsLimitsDepth(t *testing.T) {
	_, m := paperMatrix(t)
	bestShallow, _ := Best(m, Config{MaxCols: 2}, WeightValuer)
	bestDeep, _ := Best(m, Config{MaxCols: 8}, WeightValuer)
	if bestShallow.Gain > bestDeep.Gain {
		t.Fatal("deeper search found worse rectangle")
	}
	if len(bestShallow.Cols) > 2 {
		t.Fatal("MaxCols=2 produced a wider rectangle")
	}
}

// TestMaxColsBeyondLongestRow searches the paper matrix with MaxCols
// equal to its longest row and again with 1<<16. Every column of a
// rectangle lies in each of its rows, so the result and Stats must be
// the same, and the second search may allocate in proportion to the
// matrix but not to MaxCols, which sizes the scratch arena per level.
func TestMaxColsBeyondLongestRow(t *testing.T) {
	_, m := paperMatrix(t)
	longest := 0
	for _, r := range m.Rows() {
		longest = max(longest, len(r.Entries))
	}
	want, wantStats := Best(m, Config{MaxCols: longest}, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, gotStats := Best(m, Config{MaxCols: 1 << 16}, nil)
	runtime.ReadMemStats(&after)
	if CompareRects(got, want) != 0 || gotStats != wantStats {
		t.Fatalf("MaxCols 1<<16 found %+v with %+v, MaxCols %d found %+v with %+v",
			got, gotStats, longest, want, wantStats)
	}
	bound := uint64(4 << 10 * (len(m.Rows()) + len(m.Cols()) + m.NumEntries()))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Fatalf("MaxCols 1<<16 allocated %d bytes on a %dx%d matrix of %d entries, over %d",
			alloc, len(m.Rows()), len(m.Cols()), m.NumEntries(), bound)
	}
}

func TestNoProfitableRectangle(t *testing.T) {
	// A network with no sharing: kernels exist but no extraction
	// gains literals.
	nw := network.New("flat")
	for _, in := range []string{"a", "b", "c", "d"} {
		nw.AddInput(in)
	}
	// x = ab + cd has kernels only with single-cube quotients.
	x := mustExpr(nw, "a*b + c*d")
	nw.MustAddNode("x", x)
	m := kcm.Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	best, _ := Best(m, Config{}, WeightValuer)
	if best.Rows != nil {
		t.Fatalf("found rectangle %+v in unfactorable network", best)
	}
}

func TestSingleNodeFactorZeroGain(t *testing.T) {
	// F = ab + ac factors as a(b+c) with zero net SOP literal
	// change: 4 before, X=b+c (2) + aX (2) after. Greedy must not
	// extract zero-gain rectangles.
	nw := network.New("one")
	for _, in := range []string{"a", "b", "c"} {
		nw.AddInput(in)
	}
	nw.MustAddNode("F", mustExpr(nw, "a*b + a*c"))
	m := kcm.Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	best, _ := Best(m, Config{}, WeightValuer)
	if best.Rows != nil {
		t.Fatalf("zero-gain rectangle selected: %+v", best)
	}
}

func TestCompareRectsOrdering(t *testing.T) {
	a := Rect{Rows: []int64{1}, Cols: []int64{1, 2}, Gain: 5}
	b := Rect{Rows: []int64{1}, Cols: []int64{1, 2}, Gain: 3}
	if CompareRects(a, b) >= 0 {
		t.Fatal("higher gain must order first")
	}
	none := Rect{}
	if CompareRects(none, b) <= 0 {
		t.Fatal("empty rect must order last")
	}
	if CompareRects(none, none) != 0 {
		t.Fatal("two empty rects are equal")
	}
	c := Rect{Rows: []int64{1}, Cols: []int64{1, 3}, Gain: 5}
	if CompareRects(a, c) >= 0 {
		t.Fatal("tie must break on smaller column list")
	}
}

func mustExpr(nw *network.Network, s string) sop.Expr {
	return sop.MustParseExpr(nw.Names, s)
}

// CoveredValuer values cubes at their weight unless their id is in
// covered. Kept for tests and as the reference covered-set valuer;
// hot paths use Cover, whose bitset the searcher tests directly.
func CoveredValuer(covered map[int64]bool) Valuer {
	return func(e kcm.Entry) int {
		if covered[e.CubeID] {
			return 0
		}
		return e.Weight
	}
}
