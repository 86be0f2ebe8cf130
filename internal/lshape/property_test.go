package lshape

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/sop"
)

// TestPropertyAssembleMatchesReference checks Distribute and Assemble
// against the map-based reference on generated circuits at several
// processor counts, and on the 3-node paper network split 6 ways,
// which leaves partitions empty.
func TestPropertyAssembleMatchesReference(t *testing.T) {
	type split struct {
		name string
		nw   *network.Network
		p    int
	}
	var splits []split
	for _, name := range []string{"misex3", "dalu", "des"} {
		nw, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 4, 6, 8} {
			splits = append(splits, split{fmt.Sprintf("%s/p%d", name, p), nw, p})
		}
	}
	splits = append(splits, split{"paper/p6", network.PaperExample(), 6})
	for _, s := range splits {
		t.Run(s.name, func(t *testing.T) {
			parts := partition.KWay(s.nw, nil, s.p, partition.Options{})
			mats := BuildMatrices(s.nw, parts, kernels.Options{})
			ref := refDistribute(mats)
			refLs, refExch := refAssemble(mats, ref)
			own := Distribute(mats)
			ls, exch := Assemble(mats, own)
			for p := range mats {
				checkOwnership(t, mats, own, ref, p)
				checkSameMatrix(t, p, ls[p], refLs[p].M, mats)
			}
			if !slices.EqualFunc(exch.Words, refExch.Words, slices.Equal[[]int]) {
				t.Fatalf("words %v, reference %v", exch.Words, refExch.Words)
			}
		})
	}
}

// checkOwnership compares processor p's slice with the reference: the
// owned columns must be its LocalCubes, in order, at their GlobalID,
// and every column must resolve to its cube's owner and global label.
func checkOwnership(t *testing.T, mats []*kcm.Matrix, own Ownership, ref *refOwnership, p int) {
	t.Helper()
	var cubes []sop.Cube
	for k, c := range own[p] {
		cube := mats[p].Cols()[k].Cube
		key := cube.String()
		if c.Owner != ref.Owner[key] || c.Label != ref.GlobalID[key] {
			t.Fatalf("proc %d column %d: owner %d label %d, reference %d %d",
				p, k, c.Owner, c.Label, ref.Owner[key], ref.GlobalID[key])
		}
		if c.Owner == p {
			cubes = append(cubes, cube)
		}
	}
	if !slices.EqualFunc(cubes, ref.LocalCubes[p], sop.Cube.Equal) {
		t.Fatalf("proc %d owns %v, reference %v", p, cubes, ref.LocalCubes[p])
	}
}

// checkSameMatrix requires got to equal want: rows in insertion order
// with their labels, nodes, co-kernels and entries, columns in
// interning order with their labels, cubes and row lists, and every
// lookup a search or a division makes. Rows and columns are looked up
// by every label of the partition matrices mats, so one the build
// dropped cannot linger, and columns by every cube of mats.
func checkSameMatrix(t *testing.T, p int, got, want *kcm.Matrix, mats []*kcm.Matrix) {
	t.Helper()
	gr, wr := got.Rows(), want.Rows()
	if len(gr) != len(wr) {
		t.Fatalf("proc %d: %d rows, reference %d", p, len(gr), len(wr))
	}
	for i, r := range gr {
		w := wr[i]
		if r.ID != w.ID || r.Node != w.Node || !r.CoKernel.Equal(w.CoKernel) || !slices.Equal(r.Entries, w.Entries) {
			t.Fatalf("proc %d row %d: %+v, reference %+v", p, i, *r, *w)
		}
		if got.Row(r.ID) != r {
			t.Fatalf("proc %d: Row(%d) is not row %d", p, r.ID, i)
		}
	}
	gc, wc := got.Cols(), want.Cols()
	if len(gc) != len(wc) {
		t.Fatalf("proc %d: %d columns, reference %d", p, len(gc), len(wc))
	}
	for i, c := range gc {
		w := wc[i]
		if c.ID != w.ID || !c.Cube.Equal(w.Cube) || !slices.Equal(c.RowIDs, w.RowIDs) {
			t.Fatalf("proc %d column %d: %d %v %v, reference %d %v %v",
				p, i, c.ID, c.Cube, c.RowIDs, w.ID, w.Cube, w.RowIDs)
		}
		if got.Col(c.ID) != c || got.ColByCube(c.Cube, c.Hash) != c {
			t.Fatalf("proc %d: Col(%d) or ColByCube(%v) is not column %d", p, c.ID, c.Cube, i)
		}
	}
	for _, m := range mats {
		for _, r := range m.Rows() {
			if (got.Row(r.ID) == nil) != (want.Row(r.ID) == nil) {
				t.Fatalf("proc %d: Row(%d) is %v, reference %v", p, r.ID, got.Row(r.ID), want.Row(r.ID))
			}
		}
		for _, c := range m.Cols() {
			if (got.Col(c.ID) == nil) != (want.Col(c.ID) == nil) {
				t.Fatalf("proc %d: Col(%d) is %v, reference %v", p, c.ID, got.Col(c.ID), want.Col(c.ID))
			}
			g, w := got.ColByCube(c.Cube, c.Hash), want.ColByCube(c.Cube, c.Hash)
			if (g == nil) != (w == nil) || g != nil && g.ID != w.ID {
				t.Fatalf("proc %d: ColByCube(%v) is %v, reference %v", p, c.Cube, g, w)
			}
		}
	}
	if got.NumEntries() != want.NumEntries() || got.MaxCubeID() != want.MaxCubeID() {
		t.Fatalf("proc %d: %d entries max cube %d, reference %d %d",
			p, got.NumEntries(), got.MaxCubeID(), want.NumEntries(), want.MaxCubeID())
	}
	gi, wi := got.Index(), want.Index()
	if !slices.Equal(gi.RowIDs, wi.RowIDs) || !slices.Equal(gi.ColIDs, wi.ColIDs) ||
		!slices.EqualFunc(gi.RowRefs, wi.RowRefs, slices.Equal[[]int32]) ||
		!slices.EqualFunc(gi.ColRows, wi.ColRows, slices.Equal[[]int32]) ||
		gi.MaxRowLen != wi.MaxRowLen || gi.MaxCubeID != wi.MaxCubeID {
		t.Fatalf("proc %d: dense index differs from the reference's", p)
	}
}

// TestOneProcessorPastStride assembles a one-processor matrix whose
// labels run past kcm.Stride into processor 1's range: ownership is
// stored, not derived from the label, so every column stays
// processor 0's.
func TestOneProcessorPastStride(t *testing.T) {
	n := kcm.Stride + 3
	cols := make([]kcm.Col, n)
	for k := range cols {
		cols[k] = kcm.Col{ID: int64(k) + 1, Cube: sop.Cube{sop.Pos(sop.Var(k))}}
	}
	m := kcm.New(cols, []kcm.Row{{ID: 1, Entries: []kcm.Entry{
		{Col: 1, CubeID: 1, Weight: 2},
		{Col: int64(n) - 1, CubeID: 2, Weight: 2},
		{Col: int64(n), CubeID: 3, Weight: 2},
	}}})
	mats := []*kcm.Matrix{m}
	ls, exch := Assemble(mats, Distribute(mats))
	checkSameMatrix(t, 0, ls[0], m, mats)
	if exch.Words[0][0] != 0 {
		t.Fatalf("one processor shipped %d words to itself", exch.Words[0][0])
	}
}

// TestResolveRejectsUnpositionedLabels requires Resolve to panic,
// naming the label, on a column not labeled by its position.
func TestResolveRejectsUnpositionedLabels(t *testing.T) {
	m := kcm.New([]kcm.Col{{ID: 1, Cube: sop.Cube{sop.Pos(0)}}, {ID: 7, Cube: sop.Cube{sop.Pos(1)}}}, nil)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "column 7 ") {
			t.Fatalf("panic %q does not name label 7", msg)
		}
	}()
	Resolve([]*kcm.Matrix{m}, 0)
}
