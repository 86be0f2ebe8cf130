package lshape

import (
	"testing"

	"repro/internal/equiv"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
	"repro/internal/sop"
)

func TestDistributeEmptyPartition(t *testing.T) {
	// A partition with no nodes yields an empty matrix; ownership
	// distribution and assembly must tolerate it (KWay can return
	// empty parts when p exceeds the node count).
	nw := network.PaperExample()
	F, _ := nw.Names.Lookup("F")
	parts := [][]sop.Var{{F}, {}}
	mats := BuildMatrices(nw, parts, kernels.Options{})
	o := Distribute(mats)
	ls, _ := Assemble(mats, o)
	if len(ls) != 2 {
		t.Fatal("want 2 L matrices")
	}
	if len(ls[1].Rows()) != 0 {
		t.Fatal("empty partition must yield an empty slab")
	}
	if len(owned(o, 1)) != 0 {
		t.Fatal("empty partition owns no cubes")
	}
}

func TestExtractCallEmptyPartitions(t *testing.T) {
	nw := network.PaperExample()
	F, _ := nw.Names.Lookup("F")
	G, _ := nw.Names.Lookup("G")
	H, _ := nw.Names.Lookup("H")
	parts := [][]sop.Var{{F, G, H}, {}, {}}
	ref := nw.Clone()
	res := ExtractCall(nw, parts, Options{})
	if res.Extracted == 0 {
		t.Fatal("nothing extracted")
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMoreWaysThanNodes(t *testing.T) {
	nw := network.PaperExample() // 3 nodes, 6-way partition
	ref := nw.Clone()
	Run(nw, 6, Options{})
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblePreservesEntryCounts(t *testing.T) {
	// Every entry of every partition matrix appears in exactly one
	// horizontal slab; leg entries are duplicates of slab entries
	// restricted to owned columns, so total entries across L
	// matrices = slab entries + exchanged words.
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.KWay(nw, nil, 3, partition.Options{})
	mats := BuildMatrices(nw, parts, kernels.Options{})
	o := Distribute(mats)
	ls, exch := Assemble(mats, o)
	slab := 0
	for _, m := range mats {
		slab += m.NumEntries()
	}
	shipped := 0
	for i := range exch.Words {
		for j := range exch.Words[i] {
			shipped += exch.Words[i][j]
		}
	}
	total := 0
	for _, l := range ls {
		total += l.NumEntries()
	}
	if total != slab+shipped {
		t.Fatalf("entries: %d L-total vs %d slab + %d shipped", total, slab, shipped)
	}
}

func TestSequentialLWithRestrictedSearch(t *testing.T) {
	// Tight search caps must degrade gracefully, never break
	// equivalence.
	nw := network.PaperExample()
	ref := nw.Clone()
	Run(nw, 2, Options{Rect: rect.Config{MaxCols: 2, MaxVisits: 50}})
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnershipGlobalIDsResolve(t *testing.T) {
	// Every global id must resolve to its cube via its owner matrix —
	// the invariant that lets the legs intern no column.
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.KWay(nw, nil, 4, partition.Options{})
	mats := BuildMatrices(nw, parts, kernels.Options{})
	o := Distribute(mats)
	for p, cols := range o {
		for k, c := range cols {
			col := mats[c.Owner].Col(c.Label)
			if col == nil {
				t.Fatalf("global id %d (owner %d) not in owner matrix", c.Label, c.Owner)
			}
			if !col.Cube.Equal(mats[p].Cols()[k].Cube) {
				t.Fatalf("global id %d resolves to wrong cube", c.Label)
			}
			if c.Label/kcm.Stride != int64(c.Owner) {
				t.Fatalf("global id %d not in owner %d's label range", c.Label, c.Owner)
			}
		}
	}
}
