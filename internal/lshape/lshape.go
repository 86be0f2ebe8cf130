// Package lshape implements the paper's L-shaped partitioning of the
// co-kernel cube matrix (§5.1–5.2): a greedy disjoint distribution of
// kernel-cube ownership across processors, followed by an exchange of
// the overlapping sub-blocks B_ij so that every processor holds an
// L-shaped matrix — its own rows over all of its kernels' columns
// (the horizontal slab) plus every other processor's rows restricted
// to the columns it owns (the vertical leg). The overlap is what lets
// a partitioned search still find rectangles that span partitions,
// while ownership keeps duplicate kernels from being extracted twice.
//
// Both steps are split per processor (Resolve, AssembleProc), so the
// parallel driver runs them on every worker at once while the
// sequential one loops over them (Distribute, Assemble).
//
// The package is determinism-critical: L-matrix row order reaches
// Matrix.Dump and the paper examples (Figure 4).
//
//repolint:determinism-critical
package lshape

import (
	"fmt"

	"repro/internal/analysis/invariant"
	"repro/internal/kcm"
)

// Column is the ownership of one column of a processor's partition
// matrix.
type Column struct {
	// Label is the column's global label: the owning processor's
	// local label, as in Example 5.1 where cube a keeps label 1 from
	// processor 0.
	Label int64
	// Owner is the lowest-numbered processor whose matrix has the
	// column's cube.
	Owner int
}

// Ownership records the result of Distribute_cube_ownership (§5.2):
// Ownership[p][k] resolves column k of processor p's matrix, in
// Cols() order. A processor owns the columns whose Owner is itself.
type Ownership [][]Column

// ExchangeStats reports the words shipped between processors while
// building the L shapes, for the virtual-time model: Words[i][j] is
// the entry count processor i sent to processor j (the sub-block
// B_ij of §5.1 line 11-12).
type ExchangeStats struct {
	Words [][]int
}

// Resolve returns processor p's slice of the ownership. A column's
// cube belongs to the lowest-numbered processor whose matrix has it,
// so p probes only mats[0..p-1]; they are read through ColByCube
// alone, with the hash each column carries, so no cube is hashed, and
// workers may resolve concurrently once every matrix is built. The
// matrices must be Patcher-built: Resolve panics if a column of
// mats[p] is not labeled by its position (see
// kcm.Patcher.Assemble), since AssembleProc finds an entry's column
// from its label.
func Resolve(mats []*kcm.Matrix, p int) []Column {
	cols := mats[p].Cols()
	out := make([]Column, len(cols))
	base := int64(p) * kcm.Stride
	for k, c := range cols {
		if c.ID != base+int64(k)+1 {
			panic(fmt.Sprintf("lshape: column %d of processor %d is not labeled by its position %d", c.ID, p, k))
		}
		out[k] = Column{Label: c.ID, Owner: p}
		for i := range p {
			if oc := mats[i].ColByCube(c.Cube, c.Hash); oc != nil {
				out[k] = Column{Label: oc.ID, Owner: i}
				break
			}
		}
	}
	return out
}

// Distribute performs the greedy cube-ownership pass of
// L-SHAPED_PARTITION: processor 0 owns all its cubes, processor i
// owns all its cubes not owned by processors 0..i-1.
func Distribute(mats []*kcm.Matrix) Ownership {
	o := make(Ownership, len(mats))
	for p := range mats {
		o[p] = Resolve(mats, p)
	}
	return o
}

// Sends returns the size of each sub-block B_ij processor i ships:
// Sends(mats, o, i)[j] counts the entries of mats[i] in columns that
// processor j ≠ i owns. It reads only processor i's own slice.
func Sends(mats []*kcm.Matrix, o Ownership, i int) []int {
	words := make([]int, len(mats))
	for k, c := range mats[i].Cols() {
		if j := o[i][k].Owner; j != i {
			words[j] += len(c.RowIDs)
		}
	}
	return words
}

// AssembleProc builds processor j's L-shaped matrix: its own rows in
// mats[j] order, then the leg B_ij of every other processor i in
// processor order. Row labels are preserved; column labels are
// rewritten to global ones, so entries denoting the same function
// cube carry the same CubeID everywhere — the shared state the §5.3
// protocol relies on. A column j owns is by definition in mats[j],
// labeled by its position there, so a leg entry's column is found
// from its global label by arithmetic (kcm.Compose). Peers' matrices
// and ownership slices are only read, so every processor may assemble
// concurrently.
//
// prev, when not nil, is an L-matrix an earlier AssembleProc returned
// and the caller has done with, such as processor j's from the last
// call: the new L-matrix is filled into its storage (kcm.Compose), and
// prev reads as empty afterwards.
func AssembleProc(mats []*kcm.Matrix, o Ownership, j int, prev *kcm.Matrix) *kcm.Matrix {
	labels := make([]int64, len(o[j]))
	for k, c := range o[j] {
		labels[k] = c.Label
	}
	base := int64(j) * kcm.Stride
	parts := make([]kcm.Part, len(mats))
	for i, m := range mats {
		parts[i].M = m
		if i == j {
			continue
		}
		to := make([]int32, len(o[i]))
		for k, c := range o[i] {
			to[k] = -1
			if c.Owner == j {
				to[k] = int32(c.Label - base - 1)
			}
		}
		parts[i].To = to
	}
	l := kcm.Compose(parts, j, labels, prev)
	if invariant.Enabled {
		checkLegs(mats, o, j, l)
	}
	return l
}

// checkLegs asserts that the leg rows of processor j's L-matrix l,
// which follow its own rows, hold for each processor i ≠ j exactly the
// Sends(mats, o, i)[j] entries the model charges for shipping B_ij.
func checkLegs(mats []*kcm.Matrix, o Ownership, j int, l *kcm.Matrix) {
	legs := l.Rows()[len(mats[j].Rows()):]
	for i, m := range mats {
		if i == j {
			continue
		}
		took := 0
		for _, r := range m.Rows() {
			if len(legs) > 0 && legs[0].ID == r.ID {
				took += len(legs[0].Entries)
				legs = legs[1:]
			}
		}
		want := Sends(mats, o, i)[j]
		invariant.Assert(took == want, "processor %d took %d entries of B_%d%d, charged %d", j, took, i, j, want)
	}
	invariant.Assert(len(legs) == 0, "processor %d holds %d leg rows from no processor", j, len(legs))
}

// Assemble builds every processor's L-shaped matrix from the
// per-partition matrices, and counts the B_ij words exchanged.
func Assemble(mats []*kcm.Matrix, o Ownership) ([]*kcm.Matrix, ExchangeStats) {
	ls := make([]*kcm.Matrix, len(mats))
	stats := ExchangeStats{Words: make([][]int, len(mats))}
	for p := range mats {
		ls[p] = AssembleProc(mats, o, p, nil)
		stats.Words[p] = Sends(mats, o, p)
	}
	return ls, stats
}
