package kcm_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/analysis/invariant"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/sop"
)

// refillSizes are the node-list lengths, as fractions of a circuit's
// nodes in eighths, of TestRefill's steps: each list is longer or
// shorter than the one before, so every refilled slab, list, band and
// table is sometimes grown and sometimes left with a stale tail.
var refillSizes = []int{8, 3, 8, 5, 1, 6, 2, 8, 4}

// TestRefill drives one Patcher per processor of a 3-way partition
// through rebuilds whose node lists grow and shrink, and refills each
// processor's L-matrix from the one it composed the step before. After
// every step each Patcher matrix must equal the reference Builder's
// and each L-matrix the one Compose makes in new storage from freshly
// built partition matrices; each must pass TestLabelLookups' probes
// and TestIndexColRows' check; and each index must be a new value, or
// a search memo bound to the old one would be replayed.
func TestRefill(t *testing.T) {
	const p = 3
	ctx := context.Background()
	opts := kernels.Options{}
	seen := probeKinds{}
	for _, name := range []string{"misex3", "dalu"} {
		nw, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		all := nw.NodeVars()
		pats := make([]*kcm.Patcher, p)
		for i := range pats {
			pats[i] = kcm.NewPatcher(i, opts)
		}
		ls := make([]*kcm.Matrix, p)
		var oldIx []*kcm.Index
		for step, eighths := range refillSizes {
			nodes := all[:max(len(all)*eighths/8, p)]
			parts := partition.KWay(nw, nodes, p, partition.Options{})
			// Re-kernel a few nodes, so their cubes move to recycled
			// arenas while the rest are served from the cache.
			for i, part := range parts {
				for k := step % 3; k < len(part); k += 7 {
					pats[i].MarkDirty(part[k])
				}
			}
			mats := make([]*kcm.Matrix, p)
			for i, part := range parts {
				mats[i] = pats[i].Rebuild(ctx, nw, part, 2)
				requireSame(t, referenceMatrix(nw, part, i), mats[i])
			}
			fresh := lshape.BuildMatrices(nw, parts, opts)
			freshOwn := lshape.Distribute(fresh)
			own := lshape.Distribute(mats)
			for j := range ls {
				ls[j] = lshape.AssembleProc(mats, own, j, ls[j])
				requireSame(t, lshape.AssembleProc(fresh, freshOwn, j, nil), ls[j])
			}
			for _, m := range append(mats, ls...) {
				checkLookups(t, m, seen)
				checkColRows(t, m)
				ix := m.Index()
				if slices.Contains(oldIx, ix) {
					t.Fatalf("%s step %d: a refilled matrix reuses an earlier matrix's *Index", name, step)
				}
				oldIx = append(oldIx, ix)
			}
		}
	}
	seen.requireAll(t)
}

// referenceMatrix is the reference Builder's matrix of nodes, labeled
// from proc's offset.
func referenceMatrix(nw *network.Network, nodes []sop.Var, proc int) *kcm.Matrix {
	b := kcm.NewBuilder(proc, kernels.Options{})
	for _, v := range nodes {
		b.AddNode(nw, v)
	}
	return b.Matrix()
}

// requireSame asserts that got holds exactly want's rows, columns,
// entries, cube-table lookups and dense index.
func requireSame(t *testing.T, want, got *kcm.Matrix) {
	t.Helper()
	wr, gr := want.Rows(), got.Rows()
	if len(wr) != len(gr) {
		t.Fatalf("rows: want %d, got %d", len(wr), len(gr))
	}
	for i, w := range wr {
		g := gr[i]
		if w.ID != g.ID || w.Node != g.Node || !w.CoKernel.Equal(g.CoKernel) || !slices.Equal(w.Entries, g.Entries) {
			t.Fatalf("row %d: want %+v, got %+v", i, *w, *g)
		}
	}
	wc, gc := want.Cols(), got.Cols()
	if len(wc) != len(gc) {
		t.Fatalf("cols: want %d, got %d", len(wc), len(gc))
	}
	for i, w := range wc {
		g := gc[i]
		if w.ID != g.ID || !w.Cube.Equal(g.Cube) || w.Hash != g.Hash || !slices.Equal(w.RowIDs, g.RowIDs) {
			t.Fatalf("col %d: want {%d %v %v}, got {%d %v %v}", i, w.ID, w.Cube, w.RowIDs, g.ID, g.Cube, g.RowIDs)
		}
		if c := got.ColByCube(w.Cube, w.Hash); c == nil || c.ID != w.ID {
			t.Fatalf("ColByCube(%v) = %v, want column %d", w.Cube, c, w.ID)
		}
	}
	if want.NumEntries() != got.NumEntries() || want.MaxCubeID() != got.MaxCubeID() {
		t.Fatalf("entries/maxCubeID: want %d/%d, got %d/%d", want.NumEntries(), want.MaxCubeID(),
			got.NumEntries(), got.MaxCubeID())
	}
	wi, gi := want.Index(), got.Index()
	same := func(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }
	if !slices.Equal(wi.RowIDs, gi.RowIDs) || !slices.Equal(wi.ColIDs, gi.ColIDs) ||
		!same(wi.ColRows, gi.ColRows) || !same(wi.RowRefs, gi.RowRefs) ||
		wi.MaxCubeID != gi.MaxCubeID || wi.MaxRowLen != gi.MaxRowLen {
		t.Fatalf("index differs")
	}
}

// TestSupersededMatrix supersedes a Patcher matrix with a Rebuild,
// another with MakeBatches alone, and an L-matrix with a Compose into
// its storage. Each must read as empty, or, in the invariants build,
// panic on every access; and handing a superseded L-matrix back to
// Compose again must panic in every build.
func TestSupersededMatrix(t *testing.T) {
	ctx := context.Background()
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	nodes := nw.NodeVars()
	pat := kcm.NewPatcher(1, kernels.Options{})
	byRebuild := pat.Rebuild(ctx, nw, nodes, 1)
	byRebuild.Index()
	byBatches := pat.Rebuild(ctx, nw, nodes, 1)
	pat.MakeBatches(1)

	mats := lshape.BuildMatrices(nw, partition.KWay(nw, nil, 2, partition.Options{}), kernels.Options{})
	own := lshape.Distribute(mats)
	byCompose := lshape.AssembleProc(mats, own, 1, nil)
	byCompose.Index()
	lshape.AssembleProc(mats, own, 1, byCompose)

	reads := map[string]func(m *kcm.Matrix) bool{
		"Rows":       func(m *kcm.Matrix) bool { return len(m.Rows()) == 0 },
		"Cols":       func(m *kcm.Matrix) bool { return len(m.Cols()) == 0 },
		"Row":        func(m *kcm.Matrix) bool { return m.Row(kcm.Stride+1) == nil },
		"Col":        func(m *kcm.Matrix) bool { return m.Col(kcm.Stride+1) == nil },
		"ColByCube":  func(m *kcm.Matrix) bool { return m.ColByCube(sop.Cube{sop.Pos(0)}, 0) == nil },
		"NumEntries": func(m *kcm.Matrix) bool { return m.NumEntries() == 0 },
		"MaxCubeID":  func(m *kcm.Matrix) bool { return m.MaxCubeID() == 0 },
		"Index":      func(m *kcm.Matrix) bool { ix := m.Index(); return len(ix.Rows)+len(ix.Cols) == 0 },
	}
	for name, m := range map[string]*kcm.Matrix{"rebuild": byRebuild, "makebatches": byBatches, "compose": byCompose} {
		for read, empty := range reads {
			panicked := panics(func() {
				if !empty(m) {
					t.Errorf("%s: superseded matrix's %s is not empty", name, read)
				}
			})
			if panicked != invariant.Enabled {
				t.Errorf("%s: %s on a superseded matrix: panicked %v, want %v", name, read, panicked, invariant.Enabled)
			}
		}
	}
	if !panics(func() { lshape.AssembleProc(mats, own, 1, byCompose) }) {
		t.Error("refilling a superseded L-matrix did not panic")
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}
