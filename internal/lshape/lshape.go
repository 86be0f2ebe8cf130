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
	"slices"

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
// alone, and workers may resolve concurrently once every matrix is
// built. The matrices must be Patcher-built: Resolve panics if a
// column of mats[p] is not labeled by its position (see
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
			if oc := mats[i].ColByCube(c.Cube); oc != nil {
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
// mats[j] order, then the leg B_ij pulled from every other processor
// i in processor order. Row labels are preserved; column labels are
// rewritten to global ones, so entries denoting the same function
// cube carry the same CubeID everywhere — the shared state the §5.3
// protocol relies on. The legs intern no column: a column j owns is
// by definition in mats[j], whose columns are all interned first.
// Peers' matrices are read only through Rows, Cols and RowIDs, so
// every processor may assemble concurrently.
func AssembleProc(mats []*kcm.Matrix, o Ownership, j int) *kcm.Matrix {
	l := kcm.NewMatrix()
	for k, c := range mats[j].Cols() {
		l.InternColumn(c.Cube, o[j][k].Label)
	}
	pull(l, mats, o, j, j)
	for i := range mats {
		if i != j {
			pull(l, mats, o, i, j)
		}
	}
	l.SortColRows()
	return l
}

// pull adds mats[i]'s rows to processor j's L-matrix l with global
// column labels: every row and entry when i == j (the slab), else only
// the entries in columns j owns, dropping rows left empty (B_ij).
func pull(l *kcm.Matrix, mats []*kcm.Matrix, o Ownership, i, j int) {
	base := int64(i) * kcm.Stride
	var buf []kcm.Entry
	for _, r := range mats[i].Rows() {
		buf = buf[:0]
		for _, e := range r.Entries {
			c := o[i][e.Col-base-1]
			if i != j && c.Owner != j {
				continue
			}
			e.Col = c.Label
			buf = append(buf, e)
		}
		if i != j && len(buf) == 0 {
			continue
		}
		l.AddRow(&kcm.Row{ID: r.ID, Node: r.Node, CoKernel: r.CoKernel, Entries: slices.Clone(buf)})
	}
}

// Assemble builds every processor's L-shaped matrix from the
// per-partition matrices, and counts the B_ij words exchanged.
func Assemble(mats []*kcm.Matrix, o Ownership) ([]*kcm.Matrix, ExchangeStats) {
	ls := make([]*kcm.Matrix, len(mats))
	stats := ExchangeStats{Words: make([][]int, len(mats))}
	for p := range mats {
		ls[p] = AssembleProc(mats, o, p)
		stats.Words[p] = Sends(mats, o, p)
	}
	return ls, stats
}
