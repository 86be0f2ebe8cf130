package kcm_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/partition"
	"repro/internal/sop"
)

// lookupCase is one matrix whose label lookups and dense index the
// tests below check.
type lookupCase struct {
	name string
	m    *kcm.Matrix
}

// lookupCases returns the kinds of matrix the lookups serve: a Patcher
// matrix; Compose's L-matrices at p=3 and p=6, whose legs leave gaps in
// every band but their own; a reference Builder matrix, and the Merge
// of two, whose rows arrive out of label order; and three matrices
// whose rows and columns are given to New by hand: one with gaps and
// missing bands, one whose labels run past Stride (the "addrow" cases),
// and one whose rows and columns come in no label order.
func lookupCases(t *testing.T) []lookupCase {
	t.Helper()
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	cases := []lookupCase{{
		name: "patcher/proc2",
		m:    kcm.NewPatcher(2, kernels.Options{}).Rebuild(context.Background(), nw, nw.NodeVars(), 1),
	}}
	for _, p := range []int{3, 6} {
		mats := lshape.BuildMatrices(nw, partition.KWay(nw, nil, p, partition.Options{}), kernels.Options{})
		own := lshape.Distribute(mats)
		for j := range mats {
			cases = append(cases, lookupCase{fmt.Sprintf("compose/p%d/proc%d", p, j), lshape.AssembleProc(mats, own, j, nil)})
		}
	}

	// Every other node on each of two processors; proc 1's matrix is
	// merged first, so its rows precede proc 0's and the columns both
	// hold take proc 0's labels.
	bs := []*kcm.Builder{kcm.NewBuilder(0, kernels.Options{}), kcm.NewBuilder(1, kernels.Options{})}
	for i, v := range nw.NodeVars() {
		bs[i%2].AddNode(nw, v)
	}
	cases = append(cases,
		lookupCase{"builder/proc1", bs[1].Matrix()},
		lookupCase{"merge/proc1+proc0", kcm.Merge(bs[1].Matrix(), bs[0].Matrix())})

	// Rows in bands 0, 1 and 3 and columns in bands 0 and 1, each
	// band with unfilled slots; band 2 holds neither.
	colLabels := []int64{2, 5, kcm.Stride, kcm.Stride + 1, kcm.Stride + 4}
	cols := make([]kcm.Col, len(colLabels))
	for k, l := range colLabels {
		cols[k] = kcm.Col{ID: l, Cube: sop.Cube{sop.Pos(sop.Var(k))}}
	}
	var rows []kcm.Row
	cube := int64(0)
	for _, id := range []int64{1, 3, kcm.Stride + 2, 3*kcm.Stride + 1} {
		r := kcm.Row{ID: id}
		for k, l := range colLabels {
			if (int(id)+k)%2 == 0 {
				cube++
				r.Entries = append(r.Entries, kcm.Entry{Col: l, CubeID: cube, Weight: 2})
			}
		}
		rows = append(rows, r)
	}
	cases = append(cases, lookupCase{"addrow/gaps", kcm.New(cols, rows)})

	// One processor's labels running past Stride into band 1.
	n := int64(kcm.Stride + 3)
	cols = make([]kcm.Col, n)
	for l := int64(1); l <= n; l++ {
		cols[l-1] = kcm.Col{ID: l, Cube: sop.Cube{sop.Pos(sop.Var(l))}}
	}
	rows = nil
	for _, id := range []int64{1, kcm.Stride - 1, kcm.Stride, kcm.Stride + 2} {
		rows = append(rows, kcm.Row{ID: id, Entries: []kcm.Entry{
			{Col: 1, CubeID: id, Weight: 2},
			{Col: kcm.Stride + 1, CubeID: n + id, Weight: 2},
			{Col: n, CubeID: 2*n + id, Weight: 2},
		}})
	}
	cases = append(cases, lookupCase{"addrow/past-stride", kcm.New(cols, rows)})

	// Rows and columns in no label order, across three bands, and
	// entries out of column order.
	colLabels = []int64{kcm.Stride + 3, 4, 2*kcm.Stride + 1, 1, kcm.Stride + 1}
	cols = make([]kcm.Col, len(colLabels))
	for k, l := range colLabels {
		cols[k] = kcm.Col{ID: l, Cube: sop.Cube{sop.Pos(sop.Var(k))}}
	}
	rows = nil
	rowLabels := []int64{2*kcm.Stride + 2, 3, kcm.Stride + 1, 1, 2*kcm.Stride + 1, 2}
	for i, id := range rowLabels {
		r := kcm.Row{ID: id}
		for k := len(colLabels) - 1; k >= 0; k-- {
			if (i+k)%3 != 0 {
				r.Entries = append(r.Entries, kcm.Entry{Col: colLabels[k], CubeID: int64(10*i + k + 1), Weight: 2})
			}
		}
		rows = append(rows, r)
	}
	unordered := kcm.New(cols, rows)
	for i, r := range unordered.Rows() {
		if r.ID != rowLabels[i] {
			t.Fatalf("New's row %d is labeled %d, given %d", i, r.ID, rowLabels[i])
		}
	}
	for k, c := range unordered.Cols() {
		if c.ID != colLabels[k] {
			t.Fatalf("New's column %d is labeled %d, given %d", k, c.ID, colLabels[k])
		}
	}
	cases = append(cases, lookupCase{"new/unordered", unordered})
	return cases
}

// Kinds of probed label, by where the label falls relative to the
// matrix's labels of one kind (rows or columns).
const (
	kindPresent     = "present"
	kindBelowOne    = "below 1"
	kindMissingBand = "in a missing band"
	kindPastEnd     = "past a band's end"
	kindUnfilled    = "in an unfilled slot"
)

// classify names the kind of label l among the present labels, whose
// first and last label per band are lo and hi.
func classify(l int64, present map[int64]bool, lo, hi map[int64]int64) string {
	switch {
	case l < 1:
		return kindBelowOne
	case present[l]:
		return kindPresent
	}
	b := (l - 1) / kcm.Stride
	switch _, ok := hi[b]; {
	case !ok:
		return kindMissingBand
	case l > hi[b]:
		return kindPastEnd
	}
	return kindUnfilled
}

// probes returns the labels to look up among labels: each label and
// its neighbours, both ends of every band present and of the next,
// labels below 1 and labels far past every band.
func probes(labels []int64) []int64 {
	out := []int64{math.MinInt64, -kcm.Stride, -1, 0, 9*kcm.Stride + 7, math.MaxInt64}
	for _, l := range labels {
		b := (l - 1) / kcm.Stride
		out = append(out, l-1, l, l+1, b*kcm.Stride, b*kcm.Stride+1, (b+1)*kcm.Stride, (b+1)*kcm.Stride+1, (b+2)*kcm.Stride+1)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// bandEnds returns the first and last label of each band present.
func bandEnds(labels []int64) (present map[int64]bool, lo, hi map[int64]int64) {
	present, lo, hi = map[int64]bool{}, map[int64]int64{}, map[int64]int64{}
	for _, l := range labels {
		present[l] = true
		b := (l - 1) / kcm.Stride
		if v, ok := lo[b]; !ok || l < v {
			lo[b] = l
		}
		hi[b] = max(hi[b], l)
	}
	return present, lo, hi
}

// TestLabelLookups probes Row, Col and Index.ColPos with present
// labels and with absent ones of every kind: below 1, in a band the
// matrix lacks, past a band's end, and in a slot inside a band that no
// label filled. Each must find exactly the row or column the matrix
// lists under that label, and nothing for an absent one.
func TestLabelLookups(t *testing.T) {
	seen := probeKinds{}
	for _, tc := range lookupCases(t) {
		t.Run(tc.name, func(t *testing.T) { checkLookups(t, tc.m, seen) })
	}
	seen.requireAll(t)
}

// probeKinds counts, for "row" and "col", the labels probed of each
// kind.
type probeKinds map[string]map[string]int

// requireAll fails unless labels of every kind were probed, for rows
// and for columns.
func (seen probeKinds) requireAll(t *testing.T) {
	t.Helper()
	for _, what := range []string{"row", "col"} {
		for _, kind := range []string{kindPresent, kindBelowOne, kindMissingBand, kindPastEnd, kindUnfilled} {
			if seen[what][kind] == 0 {
				t.Errorf("no %s label probed %s", what, kind)
			}
		}
	}
}

// checkLookups probes m's Row, Col and Index.ColPos around its labels
// (see TestLabelLookups), counting the kinds probed in seen.
func checkLookups(t *testing.T, m *kcm.Matrix, seen probeKinds) {
	t.Helper()
	for _, what := range []string{"row", "col"} {
		if seen[what] == nil {
			seen[what] = map[string]int{}
		}
	}
	ix := m.Index()
	rows, cols := map[int64]*kcm.Row{}, map[int64]*kcm.Col{}
	var rowLabels, colLabels []int64
	for _, r := range m.Rows() {
		rows[r.ID] = r
		rowLabels = append(rowLabels, r.ID)
	}
	for _, c := range m.Cols() {
		cols[c.ID] = c
		colLabels = append(colLabels, c.ID)
	}
	dense := map[int64]int{}
	for j, l := range ix.ColIDs {
		dense[l] = j
	}

	present, lo, hi := bandEnds(rowLabels)
	for _, l := range probes(rowLabels) {
		kind := classify(l, present, lo, hi)
		seen["row"][kind]++
		if got := m.Row(l); got != rows[l] {
			t.Fatalf("Row(%d), %s: got %v, want %v", l, kind, got, rows[l])
		}
	}
	present, lo, hi = bandEnds(colLabels)
	for _, l := range probes(colLabels) {
		kind := classify(l, present, lo, hi)
		seen["col"][kind]++
		if got := m.Col(l); got != cols[l] {
			t.Fatalf("Col(%d), %s: got %v, want %v", l, kind, got, cols[l])
		}
		want, ok := dense[l]
		if got, gotOK := ix.ColPos(l); gotOK != ok || got != want {
			t.Fatalf("ColPos(%d), %s: got %d %v, want %d %v", l, kind, got, gotOK, want, ok)
		}
	}
}

// TestIndexColRows requires each column's RowIDs to be exactly the
// rows with an entry in it, ascending, whatever order the fill took
// the rows in; each column's dense row list to be its RowIDs in dense
// numbering, ascending; and the lists to hold one row per matrix
// entry.
func TestIndexColRows(t *testing.T) {
	for _, tc := range lookupCases(t) {
		t.Run(tc.name, func(t *testing.T) { checkColRows(t, tc.m) })
	}
}

// checkColRows is TestIndexColRows' check of one matrix.
func checkColRows(t *testing.T, m *kcm.Matrix) {
	t.Helper()
	want := map[int64][]int64{}
	for _, r := range m.Rows() {
		for _, e := range r.Entries {
			want[e.Col] = append(want[e.Col], r.ID)
		}
	}
	for _, c := range m.Cols() {
		w := want[c.ID]
		slices.Sort(w)
		if !slices.Equal(c.RowIDs, w) {
			t.Fatalf("column %d: RowIDs %v, want its rows ascending: %v", c.ID, c.RowIDs, w)
		}
	}
	ix := m.Index()
	if len(ix.ColRows) != len(ix.Cols) {
		t.Fatalf("%d row lists for %d columns", len(ix.ColRows), len(ix.Cols))
	}
	total := 0
	for j, c := range ix.Cols {
		want := make([]int32, len(c.RowIDs))
		for k, id := range c.RowIDs {
			i, ok := slices.BinarySearch(ix.RowIDs, id)
			if !ok {
				t.Fatalf("column %d lists row %d, which the index lacks", c.ID, id)
			}
			want[k] = int32(i)
		}
		if !slices.Equal(ix.ColRows[j], want) {
			t.Fatalf("column %d: ColRows %v, RowIDs in dense rows %v", c.ID, ix.ColRows[j], want)
		}
		if !slices.IsSorted(ix.ColRows[j]) {
			t.Fatalf("column %d: ColRows %v not ascending", c.ID, ix.ColRows[j])
		}
		total += len(ix.ColRows[j])
	}
	if total != m.NumEntries() {
		t.Fatalf("column lists hold %d rows for %d entries", total, m.NumEntries())
	}
}
