package lshape

import (
	"context"
	"testing"

	"repro/internal/equiv"
	"repro/internal/extract"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// paperSetup reproduces Example 5.1: partition {G,H} on processor 0
// and {F} on processor 1.
func paperSetup(t *testing.T) (*network.Network, [][]sop.Var, []*kcm.Matrix) {
	t.Helper()
	nw := network.PaperExample()
	F, _ := nw.Names.Lookup("F")
	G, _ := nw.Names.Lookup("G")
	H, _ := nw.Names.Lookup("H")
	parts := [][]sop.Var{{G, H}, {F}}
	mats := BuildMatrices(nw, parts, kernels.Options{})
	return nw, parts, mats
}

// owned returns the global labels of the columns processor p owns.
func owned(o Ownership, p int) map[int64]bool {
	out := map[int64]bool{}
	for _, c := range o[p] {
		if c.Owner == p {
			out[c.Label] = true
		}
	}
	return out
}

func TestDistributePaperExample51(t *testing.T) {
	nw, _, mats := paperSetup(t)
	o := Distribute(mats)
	fmtc := nw.Names.Fmt()
	// Processor 0 owns a, b, c, ce, f; processor 1 owns de, g.
	wantOwner := map[string]int{
		"a": 0, "b": 0, "c": 0, "c*e": 0, "f": 0,
		"d*e": 1, "g": 1,
	}
	got := map[string]int{}
	for p, cols := range o {
		for k, c := range cols {
			if c.Owner != p {
				continue
			}
			got[mats[p].Cols()[k].Cube.Format(fmtc)] = p
			// Global ids: proc 0's cubes keep ids < Stride; proc
			// 1's owned cubes keep ids > Stride.
			if p == 0 && c.Label >= kcm.Stride {
				t.Fatalf("proc0 cube has global id %d", c.Label)
			}
			if p == 1 && c.Label <= kcm.Stride {
				t.Fatalf("proc1 cube has global id %d", c.Label)
			}
		}
	}
	if len(got) != len(wantOwner) {
		t.Fatalf("owned cubes = %v want %v", got, wantOwner)
	}
	for k, v := range wantOwner {
		if got[k] != v {
			t.Fatalf("cube %s owned by %d want %d (%v)", k, got[k], v, got)
		}
	}
	// Proc 1's shared cubes map to proc 0's labels
	// (local_cube_index => global_cube_index of Example 5.1).
	remapped := 0
	for k, c := range o[1] {
		if c.Label < kcm.Stride {
			if mats[1].Cols()[k].ID < kcm.Stride {
				t.Fatal("proc1 local label below stride")
			}
			remapped++
		}
	}
	// F's kernel cubes a, b, c, f are owned by proc 0 => 4 remaps.
	if remapped != 4 {
		t.Fatalf("remapped %d columns want 4", remapped)
	}
}

func TestAssembleFigure4(t *testing.T) {
	_, _, mats := paperSetup(t)
	o := Distribute(mats)
	ls, exch := Assemble(mats, o)
	if len(ls) != 2 {
		t.Fatalf("want 2 L matrices")
	}
	// A row is processor j's own when its label is in j's range.
	own := func(j int, r *kcm.Row) bool { return r.ID/kcm.Stride == int64(j) }
	// Figure 4, processor 0: own rows (G a, G b, G ce, G f, H de)
	// plus F's rows restricted to columns a,b,c,ce,f — F de (a,b,c),
	// F f (a,b), F g (a,c), F a (f), F b (f), F c (nothing owned by
	// 0 besides...). F a's entries: f(owned by 0), de, g (owned by
	// 1) => restricted to {f}. F c: de(1), g(1) => empty, dropped.
	owned0 := owned(o, 0)
	ownRows0 := 0
	foreignRows0 := 0
	for _, r := range ls[0].Rows() {
		if own(0, r) {
			ownRows0++
		} else {
			foreignRows0++
			for _, e := range r.Entries {
				if !owned0[e.Col] {
					t.Fatalf("foreign row %d has entry in unowned col %d", r.ID, e.Col)
				}
			}
		}
	}
	if ownRows0 != 5 {
		t.Fatalf("proc0 own rows = %d want 5", ownRows0)
	}
	if foreignRows0 != 5 {
		t.Fatalf("proc0 foreign rows = %d want 5 (F a, F b, F de, F f, F g)", foreignRows0)
	}
	// Processor 1: own rows = 6 (F's); foreign rows = G/H rows
	// restricted to columns de, g — none of G's kernel cubes are
	// de or g, H's kernel cubes are a, c — so no foreign rows.
	ownRows1, foreignRows1 := 0, 0
	for _, r := range ls[1].Rows() {
		if own(1, r) {
			ownRows1++
		} else {
			foreignRows1++
		}
	}
	if ownRows1 != 6 || foreignRows1 != 0 {
		t.Fatalf("proc1 rows = %d own, %d foreign; want 6, 0", ownRows1, foreignRows1)
	}
	// Exchange stats: proc 1 shipped its B_10 block to proc 0.
	if exch.Words[1][0] == 0 {
		t.Fatal("no words shipped from proc1 to proc0")
	}
	if exch.Words[0][1] != 0 {
		t.Fatalf("unexpected shipment proc0->proc1: %d", exch.Words[0][1])
	}
}

func TestAssembleConsistentCubeIDs(t *testing.T) {
	// The same function cube must carry the same CubeID in every
	// L matrix it appears in (shared state for §5.3).
	_, _, mats := paperSetup(t)
	o := Distribute(mats)
	ls, _ := Assemble(mats, o)
	type loc struct {
		node sop.Var
		row  int64
		col  int64
	}
	byCube := map[int64][]loc{}
	for _, l := range ls {
		for _, r := range l.Rows() {
			for _, e := range r.Entries {
				byCube[e.CubeID] = append(byCube[e.CubeID], loc{r.Node, r.ID, e.Col})
			}
		}
	}
	// Every CubeID must come from a single node.
	for id, locs := range byCube {
		for _, lc := range locs[1:] {
			if lc.node != locs[0].node {
				t.Fatalf("cube id %d spans nodes %v and %v", id, locs[0].node, lc.node)
			}
		}
	}
	// And the same (row,col) in different L matrices must agree.
	seen := map[[2]int64]int64{}
	for _, l := range ls {
		for _, r := range l.Rows() {
			for _, e := range r.Entries {
				k := [2]int64{r.ID, e.Col}
				if prev, ok := seen[k]; ok && prev != e.CubeID {
					t.Fatalf("entry (%d,%d) has cube ids %d and %d", r.ID, e.Col, prev, e.CubeID)
				}
				seen[k] = e.CubeID
			}
		}
	}
}

func TestExtractCallPaperQuality(t *testing.T) {
	// One L-shaped call on the 2-way partition must find the a+b
	// rectangle spanning both partitions (the overlap at work) and
	// end equivalent to the original.
	nw, parts, _ := paperSetup(t)
	ref := nw.Clone()
	res := ExtractCall(nw, parts, Options{})
	if res.Extracted == 0 {
		t.Fatal("nothing extracted")
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
	// The L-shape must beat the no-interaction partitioned result
	// (26 literals, Example 4.1): a+b is extracted once, not
	// duplicated.
	if nw.Literals() > 24 {
		t.Fatalf("LC after one L-shaped call = %d, want <= 24", nw.Literals())
	}
}

func TestRunMatchesSequentialQuality(t *testing.T) {
	// Table 4's headline: L-shaped partitioning loses almost
	// nothing vs SIS. On the paper network it must reach the same
	// 22 literals for 2-way partitions.
	for _, k := range []int{1, 2, 3} {
		nw := network.PaperExample()
		ref := nw.Clone()
		res := Run(nw, k, Options{})
		if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if lc := nw.Literals(); lc > 23 {
			t.Fatalf("k=%d: LC = %d want <= 23", k, lc)
		}
		if res.Calls < 2 {
			t.Fatalf("k=%d: calls = %d", k, res.Calls)
		}
	}
}

func TestRunSinglePartEqualsSequential(t *testing.T) {
	// k=1 L-shaped extraction degenerates to plain sequential
	// extraction: same final literal count.
	a := network.PaperExample()
	Run(a, 1, Options{})
	b := network.PaperExample()
	extract.Repeat(context.Background(), b, nil, extract.Options{})
	if a.Literals() != b.Literals() {
		t.Fatalf("k=1 L-shaped LC %d != sequential LC %d", a.Literals(), b.Literals())
	}
}

func TestOwnedColsDisjoint(t *testing.T) {
	_, _, mats := paperSetup(t)
	o := Distribute(mats)
	seen := map[int64]int{}
	for p := 0; p < len(mats); p++ {
		for gid := range owned(o, p) {
			if prev, dup := seen[gid]; dup {
				t.Fatalf("column %d owned by both %d and %d", gid, prev, p)
			}
			seen[gid] = p
		}
	}
	// Ownership covers every distinct cube exactly once.
	if len(seen) != 7 {
		t.Fatalf("owned columns = %d want 7", len(seen))
	}
}
