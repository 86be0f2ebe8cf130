package kcm

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/network"
)

// buildPaperPartition builds the Figure 2 setting: partition {F} on
// proc 1's builder and {G,H} on proc 0's builder (Example 5.1 order).
func buildPaperPartition(t *testing.T) (*network.Network, *Matrix, *Matrix) {
	t.Helper()
	nw := network.PaperExample()
	F, _ := nw.Names.Lookup("F")
	G, _ := nw.Names.Lookup("G")
	H, _ := nw.Names.Lookup("H")
	b0 := NewBuilder(0, kernels.Options{})
	b0.AddNode(nw, G)
	b0.AddNode(nw, H)
	b1 := NewBuilder(1, kernels.Options{})
	b1.AddNode(nw, F)
	return nw, b0.Matrix(), b1.Matrix()
}

func TestPaperMatrixShapes(t *testing.T) {
	_, m0, m1 := buildPaperPartition(t)
	// Figure 2 block for {G,H}: rows a,b,ce,f (G) + de (H) = 5;
	// columns a,b,c,ce,f = 5.
	if len(m0.Rows()) != 5 {
		t.Fatalf("proc0 rows = %d want 5", len(m0.Rows()))
	}
	if len(m0.Cols()) != 5 {
		t.Fatalf("proc0 cols = %d want 5", len(m0.Cols()))
	}
	// Block for {F}: rows a,b,de,f,c,g = 6; columns a,b,c,de,f,g = 6.
	if len(m1.Rows()) != 6 {
		t.Fatalf("proc1 rows = %d want 6", len(m1.Rows()))
	}
	if len(m1.Cols()) != 6 {
		t.Fatalf("proc1 cols = %d want 6", len(m1.Cols()))
	}
}

func TestOffsetLabeling(t *testing.T) {
	_, m0, m1 := buildPaperPartition(t)
	for _, r := range m0.Rows() {
		if r.ID < 1 || r.ID >= Stride {
			t.Fatalf("proc0 row id %d outside [1,%d)", r.ID, Stride)
		}
	}
	for _, r := range m1.Rows() {
		if r.ID <= Stride || r.ID >= 2*Stride {
			t.Fatalf("proc1 row id %d outside (%d,%d)", r.ID, Stride, 2*Stride)
		}
	}
	// Paper §5.2: "the index of the first kernel in processor 2
	// will be 200001".
	b2 := NewBuilder(2, kernels.Options{})
	nw := network.PaperExample()
	G, _ := nw.Names.Lookup("G")
	b2.AddNode(nw, G)
	if got := b2.Matrix().Rows()[0].ID; got != 200001 {
		t.Fatalf("first row id on proc 2 = %d want 200001", got)
	}
}

func TestEntriesDenoteFunctionCubes(t *testing.T) {
	nw, m0, _ := buildPaperPartition(t)
	G, _ := nw.Names.Lookup("G")
	gfn := nw.Node(G).Fn
	for _, r := range m0.Rows() {
		if r.Node != G {
			continue
		}
		for _, e := range r.Entries {
			col := m0.Col(e.Col)
			fc, ok := r.CoKernel.Union(col.Cube)
			if !ok {
				t.Fatal("contradictory entry cube")
			}
			if !gfn.ContainsCube(fc) {
				t.Fatalf("entry denotes %s which is not a cube of G",
					fc.Format(nw.Names.Fmt()))
			}
			if e.Weight != fc.Weight() {
				t.Fatalf("weight %d want %d", e.Weight, fc.Weight())
			}
		}
	}
}

func TestSharedCubeIDs(t *testing.T) {
	// The cube af of G appears in row (G,a) col f and row (G,f)
	// col a — both entries must carry the same CubeID.
	nw, m0, _ := buildPaperPartition(t)
	names := nw.Names
	var ids []int64
	for _, r := range m0.Rows() {
		ck := r.CoKernel.Format(names.Fmt())
		if ck != "a" && ck != "f" {
			continue
		}
		for _, e := range r.Entries {
			col := m0.Col(e.Col)
			cc := col.Cube.Format(names.Fmt())
			if (ck == "a" && cc == "f") || (ck == "f" && cc == "a") {
				ids = append(ids, e.CubeID)
			}
		}
	}
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("cube af ids = %v, want two equal ids", ids)
	}
}

func TestRowEntryLookup(t *testing.T) {
	_, m0, _ := buildPaperPartition(t)
	r := m0.Rows()[0]
	for _, e := range r.Entries {
		got, ok := r.Entry(e.Col)
		if !ok || got.CubeID != e.CubeID {
			t.Fatal("Entry lookup failed for present column")
		}
	}
	if _, ok := r.Entry(-1); ok {
		t.Fatal("Entry lookup succeeded for absent column")
	}
}

func TestSparsity(t *testing.T) {
	_, m0, _ := buildPaperPartition(t)
	s := m0.Sparsity()
	if s <= 0 || s > 1 {
		t.Fatalf("sparsity %f out of range", s)
	}
	want := float64(m0.NumEntries()) / float64(len(m0.Rows())*len(m0.Cols()))
	if s != want {
		t.Fatalf("sparsity %f want %f", s, want)
	}
	if New(nil, nil).Sparsity() != 0 {
		t.Fatal("empty matrix sparsity must be 0")
	}
}

func TestMergeUnifiesColumns(t *testing.T) {
	_, m0, m1 := buildPaperPartition(t)
	rows0, rows1 := len(m0.Rows()), len(m1.Rows())
	m := Merge(m0, m1)
	if len(m.Rows()) != rows0+rows1 {
		t.Fatalf("merged rows %d want %d", len(m.Rows()), rows0+rows1)
	}
	// Distinct kernel cubes across both blocks: a,b,c,ce,f,de,g = 7.
	if len(m.Cols()) != 7 {
		t.Fatalf("merged cols = %d want 7", len(m.Cols()))
	}
	// Shared cubes a,b,c,f keep proc 0's (smaller) labels.
	for _, c := range m.Cols() {
		switch len(c.Cube) {
		case 1:
			// single-literal columns from proc 0's range unless
			// unique to proc 1 (g).
		}
	}
	// Column back-references must be consistent.
	for _, c := range m.Cols() {
		for _, rid := range c.RowIDs {
			r := m.Row(rid)
			if r == nil {
				t.Fatalf("col %d references missing row %d", c.ID, rid)
			}
			if _, ok := r.Entry(c.ID); !ok {
				t.Fatalf("col %d references row %d without entry", c.ID, rid)
			}
		}
	}
}

func TestMergeKeepsSmallerLabel(t *testing.T) {
	// Merge proc0's matrix into proc1's: shared columns must still
	// end with proc0's smaller labels.
	_, m0, m1 := buildPaperPartition(t)
	dst := Merge(m1, m0)
	for _, c := range dst.Cols() {
		if len(c.RowIDs) == 0 {
			continue
		}
		hasProc0 := false
		for _, rid := range c.RowIDs {
			if rid < Stride {
				hasProc0 = true
			}
		}
		if hasProc0 && c.ID > Stride {
			t.Fatalf("column %v used by proc0 rows kept proc1 label %d",
				c.Cube, c.ID)
		}
	}
}

func TestMergeOrderIndependentLabels(t *testing.T) {
	_, a0, a1 := buildPaperPartition(t)
	_, b0, b1 := buildPaperPartition(t)
	x := Merge(a0, a1)
	y := Merge(b1, b0)
	// Same column labels per cube either way.
	for _, c := range x.Cols() {
		yc := y.ColByCube(c.Cube, c.Hash)
		if yc == nil || yc.ID != c.ID {
			t.Fatalf("column %v labeled %d vs %v", c.Cube, c.ID, yc)
		}
	}
	if x.NumEntries() != y.NumEntries() {
		t.Fatal("entry counts differ between merge orders")
	}
}

func TestBuildSequential(t *testing.T) {
	nw := network.PaperExample()
	m := Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	// All rows from Figure 2: 6 (F) + 4 (G) + 1 (H) = 11.
	if len(m.Rows()) != 11 {
		t.Fatalf("rows = %d want 11", len(m.Rows()))
	}
	if len(m.Cols()) != 7 {
		t.Fatalf("cols = %d want 7", len(m.Cols()))
	}
	requireIdentical(t, referenceBuild(nw, nw.NodeVars(), 0), m)
}

func TestDumpRendersAllRows(t *testing.T) {
	nw := network.PaperExample()
	m := Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	d := m.Dump(nw.Names)
	if !strings.Contains(d, "F de") || !strings.Contains(d, "H d*e") && !strings.Contains(d, "H de") {
		// The dump labels rows "<node> <cokernel>"; co-kernel de
		// formats as d*e.
		if !strings.Contains(d, "d*e") {
			t.Fatalf("dump missing de rows:\n%s", d)
		}
	}
	lines := strings.Count(d, "\n")
	if lines != len(m.Rows())+2 {
		t.Fatalf("dump has %d lines want %d", lines, len(m.Rows())+2)
	}
}

// Property: merging any 2-way split of the paper network's nodes
// yields the same set of (node, cokernel, colcube) triples as the
// sequential build, regardless of which builder got which node.
func TestQuickMergeEqualsSequential(t *testing.T) {
	nw := network.PaperExample()
	nodes := nw.NodeVars()
	seq := referenceBuild(nw, nodes, 0)
	seqTriples := tripleSet(nw, seq)
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]*Builder, 2)
		b[0] = NewBuilder(0, kernels.Options{})
		b[1] = NewBuilder(1, kernels.Options{})
		for _, v := range nodes {
			b[r.Intn(2)].AddNode(nw, v)
		}
		got := tripleSet(nw, Merge(b[0].Matrix(), b[1].Matrix()))
		if len(got) != len(seqTriples) {
			return false
		}
		for k := range seqTriples {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func tripleSet(nw *network.Network, m *Matrix) map[string]bool {
	out := map[string]bool{}
	for _, r := range m.Rows() {
		for _, e := range r.Entries {
			col := m.Col(e.Col)
			out[nw.Names.Name(r.Node)+"|"+r.CoKernel.String()+"|"+col.Cube.String()] = true
		}
	}
	return out
}
