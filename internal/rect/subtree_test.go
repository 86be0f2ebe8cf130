package rect

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/sop"
)

// Tests of the closed-form count of single-row subtrees (countSubtree):
// it must leave every result and Stats equal to a full enumeration's,
// and it must fire.

// randWideMatrix builds a small KC matrix whose rows carry many
// entries: each wide function is one to two co-kernel literals times
// three to six cubes over a small variable pool, beside a randExpr
// function over the same pool. Many search-tree nodes then have a
// single row with several positive entries right of their last
// column, and some multi-row rectangles still pay off.
func randWideMatrix(rng *rand.Rand) *kcm.Matrix {
	b := kcm.NewBuilder(0, kernels.Options{})
	for i, n := 0, 2+rng.Intn(2); i < n; i++ {
		var cubes []sop.Cube
		for j, nk := 0, 1+rng.Intn(2); j < nk; j++ {
			ck := sop.Pos(sop.Var(rng.Intn(3)))
			for k, nc := 0, 3+rng.Intn(4); k < nc; k++ {
				lits := []sop.Lit{ck, sop.Pos(sop.Var(3 + rng.Intn(9)))}
				if rng.Intn(3) == 0 {
					lits = append(lits, sop.Pos(sop.Var(3+rng.Intn(9))))
				}
				if c, ok := sop.NewCube(lits...); ok {
					cubes = append(cubes, c)
				}
			}
		}
		b.AddFunction(sop.Var(100+i), sop.NewExpr(cubes...))
		b.AddFunction(sop.Var(200+i), randExpr(rng, 8))
	}
	return b.Matrix()
}

// TestPropertySingleRowBudgetSweep sweeps the visit budget over every
// value from 1 to one past the full enumeration, at MaxCols 1 to 6, on
// matrices rich in single-row subtrees, so the budget runs out before,
// inside and just after subtrees of every size the searcher counts in
// closed form. Best and BestK (k 1 and 4) must equal the reference
// searcher, Stats included, through a long-lived Cover (whose memo and
// presearch see every budget) and through the generic valuer. The
// sweep is quadratic in the full count, so matrices whose full
// enumeration passes 200 visits are skipped.
func TestPropertySingleRowBudgetSweep(t *testing.T) {
	swept, counted, cut := 0, 0, 0
	for seed := int64(600); seed < 608; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randWideMatrix(rng)
		if _, full := ReferenceBest(m, Config{MaxCols: 6}, WeightValuer); full.Visits > 200 {
			continue
		}
		swept++
		cover := NewCover(m)
		covered := map[int64]bool{}
		for _, id := range allCubeIDs(m) {
			if rng.Intn(4) == 0 {
				cover.Mark(id)
				covered[id] = true
			}
		}
		val := CoveredValuer(covered)
		for maxCols := 1; maxCols <= 6; maxCols++ {
			_, full := ReferenceBest(m, Config{MaxCols: maxCols}, val)
			for budget := 1; budget <= full.Visits+1; budget++ {
				ref := Config{MaxCols: maxCols, MaxVisits: budget}
				withCover := ref
				withCover.Cover = cover
				checkAgreePaths(t, m, ref, val,
					searchPath{fmt.Sprintf("seed %d MaxCols %d budget %d cover", seed, maxCols, budget), withCover, nil},
					searchPath{fmt.Sprintf("seed %d MaxCols %d budget %d generic", seed, maxCols, budget), ref, val})

				s := newSearcher(m, ref, val)
				s.run(nil)
				if s.live < s.stats.Visits {
					counted++
					if s.stats.Truncated {
						cut++
					}
				}
				s.release()
			}
		}
	}
	t.Logf("%d matrices swept: %d searches counted subtrees in closed form, %d of them truncated", swept, counted, cut)
	if swept < 5 || cut == 0 {
		t.Fatal("want at least 5 matrices swept, with searches that count subtrees and still run out of budget")
	}
}

// wideRowMatrix returns the KC matrix of f = x·(a_1 + … + a_n): one
// row, co-kernel x, with n entries x·a_i of weight 2.
func wideRowMatrix(t *testing.T, n int) *kcm.Matrix {
	t.Helper()
	cubes := make([]sop.Cube, n)
	for i := range cubes {
		c, _ := sop.NewCube(sop.Pos(0), sop.Pos(sop.Var(1+i)))
		cubes[i] = c
	}
	b := kcm.NewBuilder(0, kernels.Options{})
	b.AddFunction(sop.Var(1000), sop.NewExpr(cubes...))
	m := b.Matrix()
	if rows := m.Rows(); len(rows) != 1 || len(rows[0].Entries) != n {
		t.Fatalf("want one row of %d entries, got %d rows", n, len(rows))
	}
	return m
}

// binomSums returns Σ_{j=0}^{k} C(m, j) for k = 0 … m, exactly.
func binomSums(m int) []*big.Int {
	sums := make([]*big.Int, m+1)
	c, sum := big.NewInt(1), new(big.Int)
	for j := 0; j <= m; j++ {
		sums[j] = new(big.Int).Add(sum, c)
		sum = sums[j]
		// C(m, j+1) = C(m, j)·(m-j)/(j+1)
		c = new(big.Int).Quo(new(big.Int).Mul(c, big.NewInt(int64(m-j))), big.NewInt(int64(j+1)))
	}
	return sums
}

// TestPropertySubtreeCountOverflow checks the closed form where its
// counts are large. subsetCount must equal math/big's binomial sums
// and refuse, without overflowing, every sum above its limit,
// math.MaxInt included, at every depth bound k ≤ m+1 for every m ≤ 70
// and for some larger m. On one row of 62 positive entries at MaxCols
// 8, an unbounded search must count every non-empty column set of at
// most 8 columns, Σ_{j=1}^{8} C(62, j) visits, of which all but the 62
// roots are evals; and a search with a budget of 1000 must truncate
// exactly where the reference searcher does.
func TestPropertySubtreeCountOverflow(t *testing.T) {
	maxInt := big.NewInt(math.MaxInt)
	ms := []int{100, 200, 1000} // where C(m, j+1) can pass 2^64 while C(m, j) fits
	for m := 0; m <= 70; m++ {
		ms = append(ms, m)
	}
	for _, m := range ms {
		sums := binomSums(m)
		for k := 0; k <= m+1; k++ {
			want := sums[min(m, k)]
			for _, limit := range []int{math.MaxInt, 1000} {
				got, ok := subsetCount(m, k, limit)
				if fits := want.Cmp(big.NewInt(int64(limit))) <= 0; ok != fits || ok && int64(got) != want.Int64() {
					t.Fatalf("subsetCount(%d, %d, %d) = %d, %v; want %v (fits %v)", m, k, limit, got, ok, want, fits)
				}
			}
			if want.Cmp(maxInt) > 0 {
				continue
			}
			n := int(want.Int64())
			if got, ok := subsetCount(m, k, n); !ok || got != n {
				t.Fatalf("subsetCount(%d, %d, %d) = %d, %v at its exact limit", m, k, n, got, ok)
			}
			if _, ok := subsetCount(m, k, n-1); ok {
				t.Fatalf("subsetCount(%d, %d, %d) fits one below its count", m, k, n-1)
			}
		}
	}

	m := wideRowMatrix(t, 62)
	best, stats := Best(m, Config{MaxCols: 8, MaxVisits: math.MaxInt}, WeightValuer)
	// Σ_{j=1}^{8} C(62, j) and Σ_{j=2}^{8} C(62, j).
	sums := binomSums(62)
	visits := new(big.Int).Sub(sums[8], big.NewInt(1))
	evals := new(big.Int).Sub(visits, big.NewInt(62))
	if best.Rows != nil || stats.Truncated || int64(stats.Visits) != visits.Int64() || int64(stats.Evals) != evals.Int64() {
		t.Fatalf("unbounded: %+v %+v, want no rectangle, %v visits, %v evals", best, stats, visits, evals)
	}
	cfg := Config{MaxCols: 8, MaxVisits: 1000}
	withCover := cfg
	withCover.Cover = NewCover(m)
	checkAgreePaths(t, m, cfg, WeightValuer,
		searchPath{"budget 1000", cfg, WeightValuer}, searchPath{"budget 1000 cover", withCover, nil})
}

// TestPropertyClosedFormFires requires the closed form to take most of
// the search off the live walk on a generated misex3 matrix, and all
// of it on a matrix of one row, whose roots each have a single row. A
// change that silently stops counting single-row subtrees, in recurse
// or at the roots, then fails here and not only in the benchmarks.
func TestPropertyClosedFormFires(t *testing.T) {
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	m := kcm.Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	s := newSearcher(m, Config{MaxCols: 5}, WeightValuer)
	defer s.release()
	s.run(nil)
	t.Logf("misex3: %d live of %d logical visits", s.live, s.stats.Visits)
	if s.stats.Truncated || s.live*6 > s.stats.Visits {
		t.Fatalf("misex3: %d live of %d logical visits (truncated %v), want at most a sixth live",
			s.live, s.stats.Visits, s.stats.Truncated)
	}

	// Every root of one wide row has that single row: all counted.
	wide := newSearcher(wideRowMatrix(t, 20), Config{}, WeightValuer)
	defer wide.release()
	wide.run(nil)
	if wide.live != 0 || wide.stats.Visits == 0 {
		t.Fatalf("one wide row: %d live of %d logical visits, want none live", wide.live, wide.stats.Visits)
	}
}
