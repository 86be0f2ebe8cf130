package kcm

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// requireIdentical asserts full bit-identity of two matrices: row
// order, every label, every entry, every column row-list.
func requireIdentical(t *testing.T, want, got *Matrix) {
	t.Helper()
	if len(want.rows) != len(got.rows) {
		t.Fatalf("rows: want %d, got %d", len(want.rows), len(got.rows))
	}
	for i, wr := range want.rows {
		gr := got.rows[i]
		if wr.ID != gr.ID || wr.Node != gr.Node || !wr.CoKernel.Equal(gr.CoKernel) {
			t.Fatalf("row %d: want {%d %d %v}, got {%d %d %v}", i, wr.ID, wr.Node, wr.CoKernel, gr.ID, gr.Node, gr.CoKernel)
		}
		if len(wr.Entries) != len(gr.Entries) {
			t.Fatalf("row %d entries: want %d, got %d", i, len(wr.Entries), len(gr.Entries))
		}
		for j, we := range wr.Entries {
			if we != gr.Entries[j] {
				t.Fatalf("row %d entry %d: want %+v, got %+v", i, j, we, gr.Entries[j])
			}
		}
	}
	if len(want.cols) != len(got.cols) {
		t.Fatalf("cols: want %d, got %d", len(want.cols), len(got.cols))
	}
	for i, wc := range want.cols {
		gc := got.cols[i]
		if wc.ID != gc.ID || !wc.Cube.Equal(gc.Cube) {
			t.Fatalf("col %d: want {%d %v}, got {%d %v}", i, wc.ID, wc.Cube, gc.ID, gc.Cube)
		}
		if len(wc.RowIDs) != len(gc.RowIDs) {
			t.Fatalf("col %d rows: want %v, got %v", i, wc.RowIDs, gc.RowIDs)
		}
		for j := range wc.RowIDs {
			if wc.RowIDs[j] != gc.RowIDs[j] {
				t.Fatalf("col %d rows: want %v, got %v", i, wc.RowIDs, gc.RowIDs)
			}
		}
	}
	if want.entries != got.entries || want.maxCubeID != got.maxCubeID {
		t.Fatalf("entries/maxCubeID: want %d/%d, got %d/%d", want.entries, want.maxCubeID, got.entries, got.maxCubeID)
	}
}

// randomNetwork builds a small random multi-node network for property
// tests, with enough shared structure that kernels overlap across
// nodes.
func randomNetwork(r *rand.Rand, nNodes int) (*network.Network, []sop.Var) {
	nw := network.New("rand")
	ins := make([]sop.Var, 6)
	for i := range ins {
		ins[i] = nw.AddInput(fmt.Sprintf("x%d", i))
	}
	var nodes []sop.Var
	for n := 0; n < nNodes; n++ {
		nc := 2 + r.Intn(4)
		cubes := make([]sop.Cube, 0, nc)
		for i := 0; i < nc; i++ {
			nl := 1 + r.Intn(3)
			lits := make([]sop.Lit, 0, nl)
			for j := 0; j < nl; j++ {
				lits = append(lits, sop.MkLit(ins[r.Intn(len(ins))], r.Intn(2) == 0))
			}
			if c, ok := sop.NewCube(lits...); ok {
				cubes = append(cubes, c)
			}
		}
		fn := sop.NewExpr(cubes...)
		if fn.NumCubes() < 2 {
			fn = sop.NewExpr(sop.Cube{sop.Pos(ins[0])}, sop.Cube{sop.Pos(ins[1])})
		}
		v, err := nw.AddNode(fmt.Sprintf("n%d", n), fn)
		if err != nil {
			panic(err)
		}
		nodes = append(nodes, v)
	}
	return nw, nodes
}

// referenceBuild is the oracle of every patcher test: the reference
// Builder, fed nodes one at a time, labeling from proc's §5.2 offset.
func referenceBuild(nw *network.Network, nodes []sop.Var, proc int) *Matrix {
	b := NewBuilder(proc, kernels.Options{})
	for _, v := range nodes {
		b.AddNode(nw, v)
	}
	return b.Matrix()
}

// testProcs and testWorkers span the label offsets and worker counts
// the drivers use: proc 0 (Build, extract, Replicated), proc w
// (LShaped slots, lshape.BuildMatrices), and 1–8 kerneling goroutines.
var (
	testProcs   = []int{0, 1, 5}
	testWorkers = []int{1, 2, 4, 8}
)

// TestPatcherEqualsBuilderPaperExample checks a one-shot patcher
// against the reference Builder on the Eq. 1 network and on the
// Figure 2 partitions {G,H} and {F}, for every testProcs offset and
// testWorkers count, Dump output included.
func TestPatcherEqualsBuilderPaperExample(t *testing.T) {
	ctx := context.Background()
	nw := network.PaperExample()
	F, _ := nw.Names.Lookup("F")
	G, _ := nw.Names.Lookup("G")
	H, _ := nw.Names.Lookup("H")
	for _, nodes := range [][]sop.Var{nw.NodeVars(), {G, H}, {F}} {
		for _, proc := range testProcs {
			want := referenceBuild(nw, nodes, proc)
			for _, w := range testWorkers {
				got := NewPatcher(proc, kernels.Options{}).Rebuild(ctx, nw, nodes, w)
				requireIdentical(t, want, got)
				if wd, gd := want.Dump(nw.Names), got.Dump(nw.Names); wd != gd {
					t.Fatalf("nodes %v proc %d workers %d: Dump differs:\n%s\nvs\n%s", nodes, proc, w, wd, gd)
				}
			}
		}
	}
}

// Property: for random networks, a one-shot patcher at any proc offset
// in {0,1,5} and any worker count in {1,2,4,8} is bit-identical to the
// reference Builder at the same offset.
func TestQuickPatcherEqualsBuilder(t *testing.T) {
	ctx := context.Background()
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw, nodes := randomNetwork(r, 3+r.Intn(8))
		for _, proc := range testProcs {
			want := referenceBuild(nw, nodes, proc)
			for _, w := range testWorkers {
				got := NewPatcher(proc, kernels.Options{}).Rebuild(ctx, nw, nodes, w)
				if !identical(want, got) {
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

// identical is requireIdentical as a predicate for quick.Check.
func identical(want, got *Matrix) bool {
	if len(want.rows) != len(got.rows) || len(want.cols) != len(got.cols) ||
		want.entries != got.entries || want.maxCubeID != got.maxCubeID {
		return false
	}
	for i, wr := range want.rows {
		gr := got.rows[i]
		if wr.ID != gr.ID || wr.Node != gr.Node || !wr.CoKernel.Equal(gr.CoKernel) || len(wr.Entries) != len(gr.Entries) {
			return false
		}
		for j := range wr.Entries {
			if wr.Entries[j] != gr.Entries[j] {
				return false
			}
		}
	}
	for i, wc := range want.cols {
		gc := got.cols[i]
		if wc.ID != gc.ID || !wc.Cube.Equal(gc.Cube) || len(wc.RowIDs) != len(gc.RowIDs) {
			return false
		}
		for j := range wc.RowIDs {
			if wc.RowIDs[j] != gc.RowIDs[j] {
				return false
			}
		}
	}
	return true
}

// Property: after a random sequence of node mutations with MarkDirty,
// the patcher's incremental Rebuild is bit-identical to the reference
// Builder run on the mutated network.
func TestQuickPatcherEqualsFromScratch(t *testing.T) {
	ctx := context.Background()
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw, nodes := randomNetwork(r, 4+r.Intn(6))
		p := NewPatcher(0, kernels.Options{})
		got := p.Rebuild(ctx, nw, nodes, 1+r.Intn(4))
		if !identical(referenceBuild(nw, nodes, 0), got) {
			return false
		}
		for round := 0; round < 3; round++ {
			// Mutate 1–2 random nodes, mark them dirty.
			for k := 0; k < 1+r.Intn(2); k++ {
				v := nodes[r.Intn(len(nodes))]
				mutated, extra := randomNetwork(r, 1)
				_ = extra
				fn := mutated.Node(extra[0]).Fn
				// Re-home the mutated function onto nw's input vars:
				// both networks number their 6 inputs identically.
				if err := nw.SetFn(v, fn); err != nil {
					return true // skip: mutation rejected
				}
				p.MarkDirty(v)
			}
			got = p.Rebuild(ctx, nw, nodes, 1+r.Intn(4))
			if !identical(referenceBuild(nw, nodes, 0), got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFinalizeSingleSortIndexIdentical is the regression test for the
// finalize-once column fill: Builder.Matrix gives every column its
// row-id list once, at finalize, and the result must be
// index-identical to what per-node sorting produced — each column's
// RowIDs ascending and holding precisely the rows that have an entry
// in that column — and to the Patcher's one-shot fill.
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
		if !slices.IsSorted(c.RowIDs) {
			t.Fatalf("col %d: RowIDs not sorted after finalize: %v", c.ID, c.RowIDs)
		}
		w := want[c.ID]
		slices.Sort(w)
		if !slices.Equal(w, c.RowIDs) {
			t.Fatalf("col %d: RowIDs %v, want %v", c.ID, c.RowIDs, w)
		}
	}

	// The Patcher fills its columns by another path; its lists must
	// match the Builder's exactly.
	m2 := NewPatcher(0, kernels.Options{}).Rebuild(context.Background(), nw, nodes, 1)
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

// TestPatcherReusesArenas asserts the arena recycling protocol: after
// dirtying and rebuilding, recycled chunk bytes show up in the stats,
// and the matrix from the previous round stays untouched until the
// next Rebuild call.
func TestPatcherReusesArenas(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	nw, nodes := randomNetwork(r, 8)
	p := NewPatcher(0, kernels.Options{})
	p.Rebuild(ctx, nw, nodes, 2)
	for round := 0; round < 4; round++ {
		for _, v := range nodes {
			p.MarkDirty(v)
		}
		p.Rebuild(ctx, nw, nodes, 2)
	}
	st := p.Stats()
	if st.ArenaBytesReused == 0 {
		t.Fatalf("expected arena reuse after %d full-dirty rebuilds, stats=%+v", 4, st)
	}
	if st.NodesKerneled != int64(len(nodes)*5) {
		t.Fatalf("NodesKerneled = %d, want %d", st.NodesKerneled, len(nodes)*5)
	}
}

// TestPatcherSkipsCleanNodes asserts rebuilds-avoided accounting: a
// second Rebuild with nothing dirty kernels zero nodes and yields the
// same matrix. The second Rebuild supersedes the first matrix and
// refills its storage, so the first is compared through a deep
// snapshot taken before it.
func TestPatcherSkipsCleanNodes(t *testing.T) {
	ctx := context.Background()
	nw := network.PaperExample()
	nodes := nw.NodeVars()
	p := NewPatcher(0, kernels.Options{})
	m1 := snapshot(p.Rebuild(ctx, nw, nodes, 1), nw.Names)
	kerneled := p.Stats().NodesKerneled
	m2 := p.Rebuild(ctx, nw, nodes, 1)
	if p.Stats().NodesKerneled != kerneled {
		t.Fatalf("clean rebuild re-kerneled nodes: %d -> %d", kerneled, p.Stats().NodesKerneled)
	}
	if p.Stats().NodesReused != int64(len(nodes)) {
		t.Fatalf("NodesReused = %d, want %d", p.Stats().NodesReused, len(nodes))
	}
	requireIdentical(t, m1.m, m2)
	if d := m2.Dump(nw.Names); d != m1.dump {
		t.Fatalf("Dump differs:\n%s\nvs\n%s", m1.dump, d)
	}
	m1.requireIndex(t, m2.Index())
}

// matrixSnapshot is a deep copy of a matrix, its Dump and its dense
// index, which stays valid when the matrix's storage is refilled.
type matrixSnapshot struct {
	m    *Matrix
	dump string
	ix   Index
}

// snapshot deep-copies m's rows, columns, Dump and index arrays.
func snapshot(m *Matrix, names *sop.Names) matrixSnapshot {
	c := &Matrix{entries: m.entries, maxCubeID: m.maxCubeID}
	for _, r := range m.rows {
		c.rows = append(c.rows, &Row{ID: r.ID, Node: r.Node, CoKernel: r.CoKernel.Clone(), Entries: slices.Clone(r.Entries)})
	}
	for _, col := range m.cols {
		c.cols = append(c.cols, &Col{ID: col.ID, Cube: col.Cube.Clone(), Hash: col.Hash, RowIDs: slices.Clone(col.RowIDs)})
	}
	ix := m.Index()
	clone := func(lists [][]int32) [][]int32 {
		out := make([][]int32, len(lists))
		for i, l := range lists {
			out[i] = slices.Clone(l)
		}
		return out
	}
	return matrixSnapshot{m: c, dump: m.Dump(names), ix: Index{
		RowIDs: slices.Clone(ix.RowIDs), ColIDs: slices.Clone(ix.ColIDs),
		ColRows: clone(ix.ColRows), RowRefs: clone(ix.RowRefs),
		MaxCubeID: ix.MaxCubeID, MaxRowLen: ix.MaxRowLen,
	}}
}

// requireIndex asserts that ix holds the snapshot's index arrays.
func (s matrixSnapshot) requireIndex(t *testing.T, ix *Index) {
	t.Helper()
	same := func(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }
	if !slices.Equal(s.ix.RowIDs, ix.RowIDs) || !slices.Equal(s.ix.ColIDs, ix.ColIDs) ||
		!same(s.ix.ColRows, ix.ColRows) || !same(s.ix.RowRefs, ix.RowRefs) ||
		s.ix.MaxCubeID != ix.MaxCubeID || s.ix.MaxRowLen != ix.MaxRowLen {
		t.Fatalf("index differs: want %+v, got RowIDs %v ColIDs %v ColRows %v RowRefs %v MaxCubeID %d MaxRowLen %d",
			s.ix, ix.RowIDs, ix.ColIDs, ix.ColRows, ix.RowRefs, ix.MaxCubeID, ix.MaxRowLen)
	}
}
