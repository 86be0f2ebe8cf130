package kcm

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sop"
)

// TestFinalizeSingleSortIndexIdentical is the regression test for the
// finalize-once column sort: Builder.Matrix sorts every column's
// row-id list exactly once at finalize (instead of after every node),
// and the result must be index-identical to what per-node sorting
// produced — each column's RowIDs sorted ascending and containing
// precisely the rows that have an entry in that column.
func TestFinalizeSingleSortIndexIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nw, nodes := randomNetwork(r, 12)

	m := referenceBuild(nw, nodes, 0)

	// Recompute every column's row set from the rows themselves.
	want := map[int64][]int64{}
	for _, row := range m.Rows() {
		for _, e := range row.Entries {
			want[e.Col] = append(want[e.Col], row.ID)
		}
	}
	for _, c := range m.Cols() {
		if !sort.SliceIsSorted(c.RowIDs, func(i, j int) bool { return c.RowIDs[i] < c.RowIDs[j] }) {
			t.Fatalf("col %d: RowIDs not sorted after finalize: %v", c.ID, c.RowIDs)
		}
		w := want[c.ID]
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if len(w) != len(c.RowIDs) {
			t.Fatalf("col %d: RowIDs %v, want %v", c.ID, c.RowIDs, w)
		}
		for i := range w {
			if w[i] != c.RowIDs[i] {
				t.Fatalf("col %d: RowIDs %v, want %v", c.ID, c.RowIDs, w)
			}
		}
	}

	// A redundant explicit sort must be a no-op: finalize left no
	// column in a pending-unsorted state.
	m2 := NewPatcher(0, kernels.Options{}).Rebuild(context.Background(), nw, nodes, 1)
	m2.SortColRows()
	requireIdentical(t, m, m2)
}

// FuzzPatcherEqualsRebuild fuzzes the incremental invalidation
// protocol: starting from a random network, a fuzz-chosen subset of
// nodes is rewritten and marked dirty, and the patched matrix must be
// bit-identical to the reference Builder run on the mutated network.
func FuzzPatcherEqualsRebuild(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0b1010))
	f.Add(int64(42), uint8(8), uint8(0b0110_1001))
	f.Add(int64(7), uint8(1), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, nNodes, mutMask uint8) {
		ctx := context.Background()
		n := 1 + int(nNodes%12)
		nw, nodes := randomNetwork(rand.New(rand.NewSource(seed)), n)

		pat := NewPatcher(0, kernels.Options{})
		pat.Rebuild(ctx, nw, nodes, 2)

		// Rewrite the masked nodes (dropping a cube keeps the
		// function a valid SOP) and mark them dirty.
		for i, v := range nodes {
			if mutMask&(1<<(i%8)) == 0 {
				continue
			}
			fn := nw.Node(v).Fn
			if fn.NumCubes() < 3 {
				continue
			}
			mut := sop.NewExpr(fn.Cubes()[:fn.NumCubes()-1]...)
			if err := nw.SetFn(v, mut); err != nil {
				t.Fatalf("SetFn: %v", err)
			}
			pat.MarkDirty(v)
		}

		got := pat.Rebuild(ctx, nw, nodes, 3)
		requireIdentical(t, referenceBuild(nw, nodes, 0), got)
	})
}
