package lshape

// This file keeps the original map-based ownership distribution and
// L-matrix assembly, keyed by Cube.String() strings, as the oracle that
// TestPropertyAssembleMatchesReference checks Distribute and Assemble
// against. Apart from the ref prefix on its names it is the code the
// slice-based pass replaced.

import (
	"sort"

	"repro/internal/kcm"
	"repro/internal/sop"
)

// refOwnership records the result of Distribute_cube_ownership (§5.2):
// the disjoint assignment of kernel cubes to processors and the
// mapping from each processor's local column labels to global ones.
type refOwnership struct {
	// Owner maps a kernel cube (by key) to its owning processor.
	Owner map[string]int
	// GlobalID maps a kernel cube (by key) to its global column
	// label: the owning processor's local label, as in Example 5.1
	// where cube a keeps label 1 from processor 0.
	GlobalID map[string]int64
	// LocalCubes lists, per processor, the cubes it owns, in
	// global label order.
	LocalCubes [][]sop.Cube
	// LocalToGlobal maps, per processor, local column labels to
	// global ones.
	LocalToGlobal []map[int64]int64
}

// OwnedCols returns the set of global column labels processor p owns.
func (o *refOwnership) OwnedCols(p int) map[int64]bool {
	out := map[int64]bool{}
	for key, owner := range o.Owner {
		if owner == p {
			out[o.GlobalID[key]] = true
		}
	}
	return out
}

// refDistribute performs the greedy cube-ownership pass of
// L-SHAPED_PARTITION: processor 0 owns all its cubes, processor i
// owns all its cubes not owned by processors 0..i-1. Matrices are
// visited in processor order and columns in label order, so the
// result is deterministic.
func refDistribute(mats []*kcm.Matrix) *refOwnership {
	o := &refOwnership{
		Owner:         map[string]int{},
		GlobalID:      map[string]int64{},
		LocalCubes:    make([][]sop.Cube, len(mats)),
		LocalToGlobal: make([]map[int64]int64, len(mats)),
	}
	for p, m := range mats {
		o.LocalToGlobal[p] = map[int64]int64{}
		cols := append([]*kcm.Col(nil), m.Cols()...)
		sort.Slice(cols, func(i, j int) bool { return cols[i].ID < cols[j].ID })
		for _, c := range cols {
			key := c.Cube.String()
			if _, taken := o.Owner[key]; !taken {
				o.Owner[key] = p
				o.GlobalID[key] = c.ID
				o.LocalCubes[p] = append(o.LocalCubes[p], c.Cube)
			}
			o.LocalToGlobal[p][c.ID] = o.GlobalID[key]
		}
	}
	return o
}

// refLMatrix is one processor's L-shaped matrix.
type refLMatrix struct {
	// Proc is the owning processor.
	Proc int
	// M is the assembled matrix: own rows over all own columns,
	// plus foreign rows restricted to owned columns. Column labels
	// are global.
	M *kcm.Matrix
	// Owned is the set of global column labels this processor owns.
	Owned map[int64]bool
	// OwnRows is the set of row ids originating from this
	// processor's own partition.
	OwnRows map[int64]bool
}

// refAssemble builds every processor's L-shaped matrix from the
// per-partition matrices. Row labels are preserved; column labels are
// rewritten to global ones, so entries denoting the same function
// cube carry the same CubeID everywhere — the shared state the §5.3
// protocol relies on.
func refAssemble(mats []*kcm.Matrix, o *refOwnership) ([]*refLMatrix, ExchangeStats) {
	n := len(mats)
	stats := ExchangeStats{Words: make([][]int, n)}
	for i := range stats.Words {
		stats.Words[i] = make([]int, n)
	}
	out := make([]*refLMatrix, n)
	cols := make([][]kcm.Col, n)
	rows := make([][]kcm.Row, n)
	// have records, per processor, the cubes its L-matrix has a
	// column for; a cube's first column keeps its label.
	have := make([]map[string]bool, n)
	addCol := func(p int, cube sop.Cube, gid int64) {
		if key := cube.String(); !have[p][key] {
			have[p][key] = true
			cols[p] = append(cols[p], kcm.Col{ID: gid, Cube: cube})
		}
	}
	for p := range mats {
		out[p] = &refLMatrix{
			Proc:    p,
			Owned:   o.OwnedCols(p),
			OwnRows: map[int64]bool{},
		}
		have[p] = map[string]bool{}
	}
	// Horizontal slabs: each processor's own rows, relabeled to
	// global column ids.
	for p, m := range mats {
		l := out[p]
		for _, c := range m.Cols() {
			addCol(p, c.Cube, o.LocalToGlobal[p][c.ID])
		}
		for _, r := range m.Rows() {
			nr := kcm.Row{ID: r.ID, Node: r.Node, CoKernel: r.CoKernel}
			for _, e := range r.Entries {
				e.Col = o.LocalToGlobal[p][e.Col]
				nr.Entries = append(nr.Entries, e)
			}
			rows[p] = append(rows[p], nr)
			l.OwnRows[r.ID] = true
		}
	}
	// Vertical legs: processor i ships B_ij (its rows restricted to
	// columns owned by j) to processor j.
	for i, m := range mats {
		for j := range mats {
			if i == j {
				continue
			}
			l := out[j]
			for _, r := range m.Rows() {
				var entries []kcm.Entry
				for _, e := range r.Entries {
					gid := o.LocalToGlobal[i][e.Col]
					if l.Owned[gid] {
						e.Col = gid
						entries = append(entries, e)
					}
				}
				if len(entries) == 0 {
					continue
				}
				// Add the owned columns (they exist in j's matrix
				// already if j had the cube; otherwise they are new
				// to j).
				for _, e := range entries {
					addCol(j, refCubeOfGlobal(mats, o, e.Col), e.Col)
				}
				rows[j] = append(rows[j], kcm.Row{ID: r.ID, Node: r.Node, CoKernel: r.CoKernel, Entries: entries})
				stats.Words[i][j] += len(entries)
			}
		}
	}
	// The rows arrive out of label order: own rows first, then the
	// legs in processor order.
	for p, l := range out {
		l.M = kcm.New(cols[p], rows[p])
	}
	return out, stats
}

// refCubeOfGlobal finds the cube a global column label stands for by
// asking its owning processor's matrix.
func refCubeOfGlobal(mats []*kcm.Matrix, o *refOwnership, gid int64) sop.Cube {
	// The owner's local label equals the global label.
	owner := int(gid / kcm.Stride)
	if owner < len(mats) {
		if c := mats[owner].Col(gid); c != nil {
			return c.Cube
		}
	}
	// Fallback: scan all matrices.
	for p, m := range mats {
		for l, g := range o.LocalToGlobal[p] {
			if g == gid {
				if c := m.Col(l); c != nil {
					return c.Cube
				}
			}
		}
	}
	return nil
}
