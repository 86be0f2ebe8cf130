package rect

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/kcm"
)

// TestPropertyMemoMatchesReference drives one long-lived Cover through
// a scripted sequence of writes to a map-backed valuer, as the
// L-shaped workers drive theirs from the state table: each step writes
// a few cube values and delivers every write through Invalidate, bans
// a cube through Mark now and then, and searches with k = 1 and 4.
// Every search must equal the reference searcher's under the same
// values with no Cover, Stats included, and its OnBest
// calls must form a strictly improving chain from the empty rectangle
// to the returned best, which they do only if replayed roots report
// their winners and the invariants build's re-search reports nothing.
// Every other step runs with half the full budget, so the budget runs
// out in memoized and in invalidated roots.
func TestPropertyMemoMatchesReference(t *testing.T) {
	replayed := 0
	for seed := int64(500); seed < 530; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, seed%2 == 1)
		ids := allCubeIDs(m)
		vals := map[int64]int{}
		val := func(e kcm.Entry) int {
			if v, ok := vals[e.CubeID]; ok {
				return v
			}
			return e.Weight
		}
		banned := map[int64]bool{}
		refVal := func(e kcm.Entry) int {
			if banned[e.CubeID] {
				return 0
			}
			return val(e)
		}
		weight := map[int64]int{}
		for _, r := range m.Rows() {
			for _, e := range r.Entries {
				weight[e.CubeID] = e.Weight
			}
		}
		cover := NewCover(m)
		for step := 0; step < 24; step++ {
			for n := rng.Intn(4); n > 0; n-- {
				id := ids[rng.Intn(len(ids))]
				// Covered, free, or a partial value, as a trueval
				// that differs from the weight would read.
				vals[id] = []int{0, weight[id], rng.Intn(weight[id] + 1)}[rng.Intn(3)]
				cover.Invalidate(id)
			}
			if rng.Intn(4) == 0 {
				id := ids[rng.Intn(len(ids))]
				banned[id] = true
				cover.Mark(id)
			}
			ref := Config{}
			if step%2 == 1 {
				_, full := ReferenceBest(m, ref, refVal)
				ref.MaxVisits = max(full.Visits/2, 1)
			}
			for _, k := range []int{1, 4} {
				if anyFresh(cover) {
					replayed++
				}
				var chain [][2]Rect
				cfg := ref
				cfg.Cover = cover
				cfg.OnBest = func(prev, next Rect) { chain = append(chain, [2]Rect{prev, next}) }
				got, gotStats := BestK(m, cfg, val, k)
				want, wantStats := ReferenceBestK(m, ref, refVal, k)
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					t.Fatalf("seed %d step %d k=%d: got %+v %+v, want %+v %+v",
						seed, step, k, got, gotStats, want, wantStats)
				}
				checkChain(t, chain, got)
			}
		}
	}
	if replayed == 0 {
		t.Fatal("want searches that replay memoized roots")
	}
}

// checkChain asserts that OnBest's calls, in order, replaced the empty
// rectangle, then each call's next, by strictly better rectangles,
// ending at batch's first rectangle (none at all for an empty batch).
func checkChain(t *testing.T, chain [][2]Rect, batch []Rect) {
	t.Helper()
	var last Rect
	for i, c := range chain {
		if !reflect.DeepEqual(c[0], last) {
			t.Fatalf("OnBest call %d: prev %+v, want the last incumbent %+v", i, c[0], last)
		}
		if c[0].Rows != nil && CompareRects(c[1], c[0]) >= 0 {
			t.Fatalf("OnBest call %d: next %+v does not improve on %+v", i, c[1], c[0])
		}
		last = c[1]
	}
	var best Rect
	if len(batch) > 0 {
		best = batch[0]
	}
	if !reflect.DeepEqual(last, best) {
		t.Fatalf("OnBest's last incumbent %+v, search returned %+v", last, best)
	}
}

// anyFresh reports whether c's memo holds a fresh root entry.
func anyFresh(c *Cover) bool {
	return c.memo.ix != nil && slices.ContainsFunc(c.memo.fresh, func(w uint64) bool { return w != 0 })
}

// relabelCubes copies m with every cube id moved up by shift, the rows
// and columns unchanged.
func relabelCubes(m *kcm.Matrix, shift int64) *kcm.Matrix {
	var cols []kcm.Col
	for _, c := range m.Cols() {
		cols = append(cols, kcm.Col{ID: c.ID, Cube: c.Cube})
	}
	var rows []kcm.Row
	for _, r := range m.Rows() {
		entries := make([]kcm.Entry, len(r.Entries))
		for i, e := range r.Entries {
			e.CubeID += shift
			entries[i] = e
		}
		rows = append(rows, kcm.Row{ID: r.ID, Node: r.Node, CoKernel: r.CoKernel, Entries: entries})
	}
	return kcm.New(cols, rows)
}

// TestPropertyCoverHighBand runs the greedy cover loop over a matrix
// and over its copy with cube ids moved from bands 0 and 1 to bands 5
// and 6, as an L-matrix's are. Every round, BestK(4) must equal the
// reference searcher under the cubes marked so far; the two Covers
// must return the same searches, Stats included, and after every Mark
// leave the same root memo entries fresh; their cube indexes must have
// the same size, set by the ids present, not by the largest id. Each
// non-empty round marks at least one cube not marked before, so the
// loop may run at most one round per cube plus a final empty one; a
// stale memo that keeps returning rectangles fails there instead of
// looping.
func TestPropertyCoverHighBand(t *testing.T) {
	const shift = 5 * kcm.Stride
	for seed := int64(600); seed < 620; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m0 := randMatrix(rng, seed%2 == 1)
		m5 := relabelCubes(m0, shift)
		c0, c5 := NewCover(m0), NewCover(m5)
		refCovered := map[int64]bool{}
		sameFresh := func(what string, a, b bitset.Set) {
			t.Helper()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: %s differ: band 0 %v, band 5 %v", seed, what, a, b)
			}
		}
		maxRounds := len(allCubeIDs(m0)) + 1
		for round := 0; ; round++ {
			if round == maxRounds {
				t.Fatalf("seed %d: the cover loop still finds rectangles after %d rounds, one more than the matrix has cubes",
					seed, round)
			}
			got0, stats0 := BestK(m0, Config{Cover: c0}, nil, 4)
			want, wantStats := ReferenceBestK(m0, Config{}, CoveredValuer(refCovered), 4)
			if !reflect.DeepEqual(got0, want) || stats0 != wantStats {
				t.Fatalf("seed %d round %d: band 0 %+v %+v, reference %+v %+v", seed, round, got0, stats0, want, wantStats)
			}
			got5, stats5 := BestK(m5, Config{Cover: c5}, nil, 4)
			if !reflect.DeepEqual(got0, got5) || stats0 != stats5 {
				t.Fatalf("seed %d round %d: band 0 %+v %+v, band 5 %+v %+v", seed, round, got0, stats0, got5, stats5)
			}
			if round == 0 && len(c5.memo.cubes.off) != len(c0.memo.cubes.off) {
				t.Fatalf("seed %d: band-5 cube index has %d offsets, band 0 %d",
					seed, len(c5.memo.cubes.off), len(c0.memo.cubes.off))
			}
			if len(got0) == 0 {
				break
			}
			for _, r := range got0 {
				for _, id := range coveredCubeIDs(m0, r) {
					c0.Mark(id)
					c5.Mark(id + shift)
					refCovered[id] = true
					sameFresh("fresh roots", c0.memo.fresh, c5.memo.fresh)
				}
			}
		}
	}
}
