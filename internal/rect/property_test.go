package rect

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/sop"
)

// Property tests: on randomized matrices, the bitset searcher must
// agree bit-for-bit — rectangles, BestK batches, and Stats — with the
// retained pre-bitset reference implementation (reference.go), for
// the generic valuer path, the CoveredValuer path, the Cover fast
// path, and under leftmost-column decomposition.

// randExpr builds a random positive-phase SOP over nv variables.
func randExpr(rng *rand.Rand, nv int) sop.Expr {
	nc := 4 + rng.Intn(7)
	cubes := make([]sop.Cube, 0, nc)
	for i := 0; i < nc; i++ {
		nl := 1 + rng.Intn(3)
		lits := make([]sop.Lit, 0, nl)
		for j := 0; j < nl; j++ {
			lits = append(lits, sop.Pos(sop.Var(rng.Intn(nv))))
		}
		if c, ok := sop.NewCube(lits...); ok {
			cubes = append(cubes, c)
		}
	}
	return sop.NewExpr(cubes...)
}

// randMatrix builds a KC matrix from random functions. When merge is
// true the nodes are split across two processor builders and merged,
// exercising offset labels and Merge.
func randMatrix(rng *rand.Rand, merge bool) *kcm.Matrix {
	nv := 6 + rng.Intn(5)
	nn := 3 + rng.Intn(4)
	opts := kernels.Options{}
	if !merge {
		b := kcm.NewBuilder(0, opts)
		for i := 0; i < nn; i++ {
			b.AddFunction(sop.Var(100+i), randExpr(rng, nv))
		}
		return b.Matrix()
	}
	b0 := kcm.NewBuilder(0, opts)
	b1 := kcm.NewBuilder(1, opts)
	for i := 0; i < nn; i++ {
		b0.AddFunction(sop.Var(100+i), randExpr(rng, nv))
		b1.AddFunction(sop.Var(200+i), randExpr(rng, nv))
	}
	return kcm.Merge(b0.Matrix(), b1.Matrix())
}

// allCubeIDs lists the distinct cube ids of the matrix.
func allCubeIDs(m *kcm.Matrix) []int64 {
	seen := map[int64]bool{}
	var ids []int64
	for _, r := range m.Rows() {
		for _, e := range r.Entries {
			if !seen[e.CubeID] {
				seen[e.CubeID] = true
				ids = append(ids, e.CubeID)
			}
		}
	}
	return ids
}

// searchPath is one way to run a search: a Config with its valuer.
type searchPath struct {
	name string
	cfg  Config
	val  Valuer
}

// checkAgreePaths asserts that Best, BestK(1) and BestK(4) of m along
// each path equal the reference searcher's results under ref and
// refVal, Stats included; the reference searches once for all paths.
func checkAgreePaths(t *testing.T, m *kcm.Matrix, ref Config, refVal Valuer, paths ...searchPath) {
	t.Helper()
	want, wantStats := ReferenceBest(m, ref, refVal)
	var want1 []Rect // ReferenceBestK(1), without searching again
	if want.Rows != nil {
		want1 = []Rect{want}
	}
	want4, want4Stats := ReferenceBestK(m, ref, refVal, 4)
	for _, p := range paths {
		if got, gotStats := Best(m, p.cfg, p.val); !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("%s: Best = %+v %+v, reference = %+v %+v", p.name, got, gotStats, want, wantStats)
		}
		if got, gotStats := BestK(m, p.cfg, p.val, 1); !reflect.DeepEqual(got, want1) || gotStats != wantStats {
			t.Fatalf("%s: BestK(1) = %+v %+v, reference = %+v %+v", p.name, got, gotStats, want1, wantStats)
		}
		if got, gotStats := BestK(m, p.cfg, p.val, 4); !reflect.DeepEqual(got, want4) || gotStats != want4Stats {
			t.Fatalf("%s: BestK(4) = %+v %+v, reference = %+v %+v", p.name, got, gotStats, want4, want4Stats)
		}
	}
}

// checkAgree asserts that Best and BestK of m under cfg and val equal
// the reference searcher's under the same arguments.
func checkAgree(t *testing.T, name string, m *kcm.Matrix, cfg Config, val Valuer) {
	t.Helper()
	checkAgreePaths(t, m, cfg, val, searchPath{name, cfg, val})
}

func TestPropertyBestMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, seed%3 == 2)

		// Uncovered: the generic valuer, and a nil one, which values
		// every entry at its weight.
		checkAgreePaths(t, m, Config{}, WeightValuer,
			searchPath{"weight", Config{}, WeightValuer}, searchPath{"nil", Config{}, nil})

		// Random covered subset through the generic CoveredValuer.
		covered := map[int64]bool{}
		for _, id := range allCubeIDs(m) {
			if rng.Intn(3) == 0 {
				covered[id] = true
			}
		}
		checkAgree(t, "covered-map", m, Config{}, CoveredValuer(covered))

		// Same subset through the Cover fast path: both searchers
		// take the value from cfg.Cover.
		cover := NewCover(m)
		for id := range covered {
			cover.Mark(id)
		}
		checkAgree(t, "cover", m, Config{Cover: cover}, nil)

		// Tighter bounds still agree (including Truncated).
		checkAgree(t, "bounded", m, Config{MaxCols: 3, MaxVisits: 50, Cover: cover}, nil)

		// Leftmost-column decomposition: each slice agrees.
		cols := m.Index().ColIDs
		for p := 0; p < 3; p++ {
			lo, hi := p*len(cols)/3, (p+1)*len(cols)/3
			cfg := Config{Cover: cover, LeftmostCols: append([]int64(nil), cols[lo:hi]...)}
			checkAgree(t, "slice", m, cfg, nil)
		}
	}
}

// truncRoot returns the dense root column a search of m under cfg
// (with its valuer and the full visit budget) runs out of visits in,
// or -1 when it finishes, by summing the per-root visits of the
// reference searcher.
func truncRoot(m *kcm.Matrix, cfg Config, val Valuer) int {
	ix := m.Index()
	roots := cfg.LeftmostCols
	if roots == nil {
		roots = m.Index().ColIDs
	}
	limit := withDefaults(cfg).MaxVisits
	total := 0
	for _, c0 := range roots {
		one := cfg
		one.LeftmostCols = []int64{c0}
		one.MaxVisits = 0
		_, st := ReferenceBest(m, one, val)
		if total += st.Visits; total > limit {
			dc, _ := ix.ColPos(c0)
			return dc
		}
	}
	return -1
}

// TestPropertyGreedyCoverMatchesReference drives the full greedy
// cover loop — search, mark the batch's cubes, repeat — asserting that
// Best and BestK through one long-lived Cover agree with the reference
// searcher, Stats included, at every step. This exercises the Cover's
// root memo across Marks. Each step runs Best, then BestK with k = 1
// and 4, so Best replays both its own top-1 entries and the longer
// lists BestK(4) recorded, and BestK(4) misses on the top-1 entries.
// Three search shapes:
//   - unbounded;
//   - truncated: a visit budget of half the step's full enumeration,
//     on every other step right after an unbounded search, so the
//     budget runs out inside roots that are sometimes memoized and
//     sometimes dirty;
//   - the three leftmost-column slices of the §3 decomposition.
func TestPropertyGreedyCoverMatchesReference(t *testing.T) {
	type shape struct {
		name      string
		cfg       Config
		truncated bool
	}
	truncFresh, truncDirty, bestFresh := 0, 0, 0
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, seed%2 == 1)
		cols := m.Index().ColIDs
		shapes := []shape{{name: "unbounded"}, {name: "truncated", truncated: true}}
		for p := 0; p < 3; p++ {
			slice := append([]int64(nil), cols[p*len(cols)/3:(p+1)*len(cols)/3]...)
			shapes = append(shapes, shape{name: "slice", cfg: Config{LeftmostCols: slice}})
		}
		for _, sh := range shapes {
			cover := NewCover(m)
			refCovered := map[int64]bool{}
			for round := 0; ; round++ {
				budgets := []int{sh.cfg.MaxVisits}
				if sh.truncated {
					_, full := ReferenceBest(m, Config{}, CoveredValuer(refCovered))
					budgets = []int{max(full.Visits/2, 1)}
					if round%2 == 0 {
						budgets = []int{0, budgets[0]}
					}
				}
				var batch []Rect
				for _, budget := range budgets {
					ref := sh.cfg
					ref.MaxVisits = budget
					if dc := truncRoot(m, ref, CoveredValuer(refCovered)); dc >= 0 {
						if cover.memo.ix != nil && cover.memo.fresh.Test(dc) {
							truncFresh++
						} else {
							truncDirty++
						}
					}
					cfg := ref
					cfg.Cover = cover
					if anyFresh(cover) {
						bestFresh++
					}
					gotBest, gotBestStats := Best(m, cfg, nil)
					wantBest, wantBestStats := ReferenceBest(m, ref, CoveredValuer(refCovered))
					if !reflect.DeepEqual(gotBest, wantBest) || gotBestStats != wantBestStats {
						t.Fatalf("seed %d %s round %d budget %d: Best = %+v %+v, want %+v %+v",
							seed, sh.name, round, budget, gotBest, gotBestStats, wantBest, wantBestStats)
					}
					for _, k := range []int{1, 4} {
						got, gotStats := BestK(m, cfg, nil, k)
						want, wantStats := ReferenceBestK(m, ref, CoveredValuer(refCovered), k)
						if !reflect.DeepEqual(got, want) || gotStats != wantStats {
							t.Fatalf("seed %d %s round %d budget %d k=%d: got %+v %+v, want %+v %+v",
								seed, sh.name, round, budget, k, got, gotStats, want, wantStats)
						}
						batch = got
					}
				}
				if len(batch) == 0 {
					break
				}
				for _, r := range batch {
					for _, id := range coveredCubeIDs(m, r) {
						cover.Mark(id)
						refCovered[id] = true
					}
				}
			}
		}
	}
	t.Logf("budget ran out in %d memoized and %d dirty roots; %d Best calls found fresh memo entries",
		truncFresh, truncDirty, bestFresh)
	if truncFresh == 0 || truncDirty == 0 {
		t.Fatal("want the budget to run out in both memoized and dirty roots")
	}
	if bestFresh == 0 {
		t.Fatal("want Best to run with fresh memo entries")
	}
}

// TestPropertyCoverAcrossMatrices searches one Cover over two
// matrices that share cubes, as lshape.ExtractCall searches its
// L-matrices: m1 holds its own band-1 rows and a copy of m0's rows,
// cube ids included. The greedy cover runs first on m0 to the end and
// then on m1 (Table 4's order), and then alternately, so that the
// memo rebinds on every search. Every step's Best and BestK(4) must
// equal the reference searcher's under the cubes marked so far, Stats
// included.
func TestPropertyCoverAcrossMatrices(t *testing.T) {
	crossed := 0
	for seed := int64(200); seed < 210; seed++ {
		for _, alternate := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			b0 := kcm.NewBuilder(0, kernels.Options{})
			b1 := kcm.NewBuilder(1, kernels.Options{})
			for i := 0; i < 4; i++ {
				b0.AddFunction(sop.Var(100+i), randExpr(rng, 8))
				b1.AddFunction(sop.Var(200+i), randExpr(rng, 8))
			}
			m0 := b0.Matrix()
			m1 := kcm.Merge(b1.Matrix(), m0)
			mats := []*kcm.Matrix{m0, m1}
			holds := []map[int64]bool{{}, {}}
			for p, m := range mats {
				for _, id := range allCubeIDs(m) {
					holds[p][id] = true
				}
			}
			cover := NewCover(m1)
			refCovered := map[int64]bool{}
			done := []bool{false, false}
			for step := 0; !done[0] || !done[1]; step++ {
				p := 0
				if done[0] || (alternate && step%2 == 1 && !done[1]) {
					p = 1
				}
				m := mats[p]
				got, gotStats := Best(m, Config{Cover: cover}, nil)
				want, wantStats := ReferenceBest(m, Config{}, CoveredValuer(refCovered))
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					t.Fatalf("seed %d alternate %v step %d m%d: Best = %+v %+v, want %+v %+v",
						seed, alternate, step, p, got, gotStats, want, wantStats)
				}
				batch, batchStats := BestK(m, Config{Cover: cover}, nil, 4)
				wantBatch, wantBatchStats := ReferenceBestK(m, Config{}, CoveredValuer(refCovered), 4)
				if !reflect.DeepEqual(batch, wantBatch) || batchStats != wantBatchStats {
					t.Fatalf("seed %d alternate %v step %d m%d: BestK(4) = %+v %+v, want %+v %+v",
						seed, alternate, step, p, batch, batchStats, wantBatch, wantBatchStats)
				}
				if len(batch) == 0 {
					done[p] = true
					continue
				}
				for _, r := range batch {
					for _, id := range coveredCubeIDs(m, r) {
						cover.Mark(id)
						refCovered[id] = true
						if holds[1-p][id] {
							crossed++
						}
					}
				}
			}
		}
	}
	if crossed == 0 {
		t.Fatal("want cubes marked on one matrix that the other holds")
	}
}

// TestPropertyBudgetInsidePresearch runs cold searches whose visit
// budget is half the full enumeration, so at GOMAXPROCS >= 2 the
// budget runs out inside the range of roots the presearch fans out.
// run's loop must still search the budget root live: the results and
// Stats, Truncated included, equal the reference searcher's. A cold
// presearch always hands the budget root out, so it must leave it
// fresh exactly when the root's own subtree fits in the budget.
func TestPropertyBudgetInsidePresearch(t *testing.T) {
	fanned := runtime.GOMAXPROCS(0) >= 2
	inside := 0
	for seed := int64(300); seed < 340; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, seed%2 == 1)
		_, full := ReferenceBest(m, Config{}, WeightValuer)
		ref := Config{MaxVisits: max(full.Visits/2, 1)}
		dc := truncRoot(m, ref, WeightValuer)
		if dc < 0 || len(m.Index().ColIDs) < 2 {
			continue
		}
		_, own := ReferenceBest(m, Config{LeftmostCols: []int64{m.Index().ColIDs[dc]}}, WeightValuer)
		cover := NewCover(m)
		cfg := ref
		cfg.Cover = cover
		for _, k := range []int{1, 4} {
			got, gotStats := BestK(m, cfg, nil, k)
			want, wantStats := ReferenceBestK(m, ref, WeightValuer, k)
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("seed %d k=%d: got %+v %+v, want %+v %+v", seed, k, got, gotStats, want, wantStats)
			}
		}
		fresh := cover.memo.fresh.Test(dc)
		if fanned && fresh != (own.Visits <= ref.MaxVisits) {
			t.Fatalf("seed %d: budget root %d has %d visits of its own, budget %d: fresh = %v",
				seed, dc, own.Visits, ref.MaxVisits, fresh)
		}
		if fresh {
			inside++
		}
	}
	t.Logf("GOMAXPROCS %d: the presearch stored the budget root in %d searches", runtime.GOMAXPROCS(0), inside)
	if fanned && inside == 0 {
		t.Fatal("want the budget to run out inside the presearched range")
	}
}

// TestPropertyPresearchSkipsTruncatedRoot plants a stale memo entry on
// a root R, as a Mark leaves it, and searches with a budget that runs
// out inside R's own subtree, so the presearch cannot complete R. R's
// stale entry must stay stale: both that search and a following one
// with the full budget must search R live and agree with the reference
// searcher.
func TestPropertyPresearchSkipsTruncatedRoot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	planted := 0
	for seed := int64(400); seed < 420; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, seed%2 == 1)
		cover := NewCover(m)
		BestK(m, Config{Cover: cover}, nil, 4)
		// R is the first root with at least two visits whose right
		// neighbour has a subtree too; the neighbour is invalidated
		// as well, so that two roots fan out.
		r, before := -1, 0
		for dc := 0; dc+1 < len(cover.memo.roots); dc++ {
			if cover.memo.roots[dc].visits >= 2 && cover.memo.roots[dc+1].visits > 0 {
				r = dc
				break
			}
			before += cover.memo.roots[dc].visits
		}
		if r < 0 {
			continue
		}
		ref := Config{MaxVisits: before + cover.memo.roots[r].visits - 1}
		cover.memo.roots[r] = rootMemo{visits: 1, cap: cover.memo.roots[r].cap}
		cover.memo.fresh.Clear(r)
		cover.memo.fresh.Clear(r + 1)
		planted++
		for _, budget := range []int{ref.MaxVisits, 0} {
			cfg := Config{MaxVisits: budget, Cover: cover}
			got, gotStats := BestK(m, cfg, nil, 4)
			want, wantStats := ReferenceBestK(m, Config{MaxVisits: budget}, WeightValuer, 4)
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("seed %d budget %d: got %+v %+v, want %+v %+v", seed, budget, got, gotStats, want, wantStats)
			}
		}
	}
	if planted == 0 {
		t.Fatal("no matrix had a root to plant a stale entry on")
	}
}
