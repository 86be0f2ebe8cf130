// Package kcm implements the co-kernel cube matrix (KC matrix) of
// Brayton et al. [1]: a sparse matrix whose rows are (node, co-kernel)
// pairs, whose columns are distinct kernel cubes, and whose non-zero
// entry (i,j) stands for the cube of node i's function formed by the
// union of co-kernel i and kernel-cube j (paper §2).
//
// The package also implements the paper's offset labeling scheme
// (§5.2): row, column and cube identifiers drawn by processor p start
// at p·Stride+1, so concurrently generated matrices carry globally
// consistent labels no matter the interleaving.
//
// A matrix is filled once, by Patcher.Assemble, Compose or New, and is
// read-only from then on; only a later fill into its storage retires
// it (see refill).
//
// The package is determinism-critical: label order drives the Figure 1
// enumeration, so iteration order must never depend on Go map order
// (DESIGN.md §7).
//
//repolint:determinism-critical
package kcm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis/invariant"
	"repro/internal/kernels"
	"repro/internal/sop"
)

// Stride is the identifier offset between processors, exactly the
// paper's example: "the index of the first kernel in processor 2 will
// be 200001 while that in processor 5 be 500001".
const Stride = 100000

// Entry is one non-zero element of the matrix. It denotes a cube of
// the owning row's node function.
type Entry struct {
	// Col is the column (kernel cube) identifier.
	Col int64
	// CubeID globally identifies the function cube this entry
	// denotes. Distinct entries may share a CubeID: the cube a·f
	// appears both in row (F,a) column f and row (F,f) column a.
	CubeID int64
	// Weight is the literal count of the denoted function cube.
	Weight int
}

// Row is one (node, co-kernel) row.
type Row struct {
	// ID is the row label (offset scheme).
	ID int64
	// Node is the network variable whose function this row divides.
	Node sop.Var
	// CoKernel is the cube whose quotient is this row's kernel.
	CoKernel sop.Cube
	// Entries are the non-zero elements, sorted by Col.
	Entries []Entry
}

// Entry returns the entry in column col, if present.
func (r *Row) Entry(col int64) (Entry, bool) {
	i := sort.Search(len(r.Entries), func(i int) bool { return r.Entries[i].Col >= col })
	if i < len(r.Entries) && r.Entries[i].Col == col {
		return r.Entries[i], true
	}
	return Entry{}, false
}

// Col is one kernel-cube column.
type Col struct {
	// ID is the column label (offset scheme).
	ID int64
	// Cube is the kernel cube all entries of this column share.
	Cube sop.Cube
	// Hash is kernels.HashCube(Cube), computed once when the column
	// is made, so looking the cube up in another matrix (ColByCube)
	// hashes nothing.
	Hash uint64
	// RowIDs lists the rows with an entry in this column, sorted.
	RowIDs []int64
	// pos is the column's index in Matrix.cols, letting the fills
	// address per-column scratch by slice index instead of map
	// lookups.
	pos int32
}

// Matrix is a sparse co-kernel cube matrix. Patcher.Assemble, Compose
// and New fill it through finish, which drops the cached dense index
// via invalidate, and nothing writes it afterwards; repolint's
// indexinvalidate analyzer checks that every exported function that
// writes a Matrix reaches invalidate.
//
//repolint:invalidate invalidate
type Matrix struct {
	rows []*Row
	cols []*Col
	// rowAt and colAt find rows and columns by label.
	rowAt labelTable[Row]
	colAt labelTable[Col]
	// colTab interns columns by cube without materializing string
	// keys: an open-addressing table over the shared kernel-cube hash.
	colTab  colTable
	entries int
	// maxCubeID tracks the largest CubeID of any entry, sizing the
	// dense covered-cube bitsets of internal/rect.
	maxCubeID int64
	// index caches the dense Index.
	index *Index
	// slabs is the storage the matrix was filled into; gen is the
	// fill's generation, which the storage's gen passes once a newer
	// fill takes it over (see refill).
	slabs *slabs
	gen   uint64
}

// invalidate drops the cached dense index; finish calls it once the
// fill is complete.
func (m *Matrix) invalidate() {
	m.index = nil
}

// New returns the matrix of the given columns and rows, filled into
// new storage. A column supplies its label and its cube; New derives
// its hash, position and RowIDs. Each row's entries name their
// columns by label, in any order. Cols() and Rows() keep the given
// order, and every column's RowIDs ascend whatever order the rows
// come in. Labels are at least 1; no two columns share a label or a
// cube, and no two rows share a label. The rows' entries are copied,
// so the caller keeps its slices.
func New(cols []Col, rows []Row) *Matrix {
	m := refill(nil)
	s := m.slabs
	s.cols = make([]Col, len(cols))
	m.cols = make([]*Col, len(cols))
	for k, c := range cols {
		h := kernels.HashCube(c.Cube)
		s.cols[k] = Col{ID: c.ID, Cube: c.Cube, Hash: h, pos: int32(k)}
		m.cols[k] = &s.cols[k]
		m.colTab.insert(h, int32(k))
	}
	// The entries' columns are found by label before finish files
	// the columns for good.
	m.colAt.fill(m.cols, colLabel)

	// The slab holds the rows in ascending label order, the order
	// finish fills RowIDs in; Rows() lists them as given.
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rows[a].ID, rows[b].ID) })
	for _, r := range rows {
		m.entries += len(r.Entries)
	}
	s.rows = make([]Row, len(rows))
	// Sized exactly, so no append moves the entries a row holds.
	s.entries = make([]Entry, 0, m.entries)
	s.colRefs = make([]int32, 0, m.entries)
	m.rows = make([]*Row, len(rows))
	for k, i := range order {
		r := rows[i]
		start := len(s.entries)
		s.entries = append(s.entries, r.Entries...)
		r.Entries = s.entries[start:len(s.entries):len(s.entries)]
		slicesSortEntries(r.Entries)
		for _, e := range r.Entries {
			s.colRefs = append(s.colRefs, m.colAt.get(e.Col).pos)
			m.maxCubeID = max(m.maxCubeID, e.CubeID)
		}
		s.rows[k] = r
		m.rows[i] = &s.rows[k]
	}
	m.finish(s.rows, s.colRefs)
	return m
}

// live asserts, in the invariants build, that no newer fill has
// taken over m's storage: a superseded matrix reads as empty, and
// reading it is a use-after-refill bug (see refill).
func (m *Matrix) live() {
	if invariant.Enabled {
		invariant.Assert(m.gen == m.slabs.gen,
			"matrix of fill %d read after fill %d took over its storage", m.gen, m.slabs.gen)
	}
}

// Rows returns the rows in the order the fill was given them
// (read-only).
func (m *Matrix) Rows() []*Row { m.live(); return m.rows }

// Cols returns the columns in the order the fill was given them
// (read-only).
func (m *Matrix) Cols() []*Col { m.live(); return m.cols }

// Row returns the row labeled id, or nil.
func (m *Matrix) Row(id int64) *Row { m.live(); return m.rowAt.get(id) }

// Col returns the column labeled id, or nil.
func (m *Matrix) Col(id int64) *Col { m.live(); return m.colAt.get(id) }

// ColByCube returns the column holding kernel cube c, whose
// kernels.HashCube is h, or nil. Every column carries its cube's hash
// (Col.Hash), so probing with another matrix's column hashes nothing.
func (m *Matrix) ColByCube(c sop.Cube, h uint64) *Col {
	m.live()
	if k := m.colTab.find(h, c, m.colCube); k >= 0 {
		return m.cols[k]
	}
	return nil
}

// colCube returns the cube of the column at position pos.
func (m *Matrix) colCube(pos int32) sop.Cube { return m.cols[pos].Cube }

// NumEntries returns the number of non-zero elements.
func (m *Matrix) NumEntries() int { m.live(); return m.entries }

// Sparsity returns the fraction of non-zero elements, the α and γ
// factors of the paper's Equation 3. An empty matrix has sparsity 0.
func (m *Matrix) Sparsity() float64 {
	m.live()
	if len(m.rows) == 0 || len(m.cols) == 0 {
		return 0
	}
	return float64(m.entries) / (float64(len(m.rows)) * float64(len(m.cols)))
}

// MaxCubeID returns the largest CubeID appearing in any entry (0 for
// an empty matrix). Dense covered-cube sets are sized by it.
func (m *Matrix) MaxCubeID() int64 { m.live(); return m.maxCubeID }

func compareEntries(a, b Entry) int { return cmp.Compare(a.Col, b.Col) }

func sortEntrySlice(entries []Entry) { slices.SortFunc(entries, compareEntries) }

// colTable is an open-addressing hash table interning columns by their
// kernel cube. It replaces a map keyed by cube strings, whose
// materialization dominated the matrix-build allocation profile. A slot
// holds the position of its column in Matrix.cols, plus one (0 is
// empty), so Assemble can intern columns before their slab exists, and
// a matrix whose columns sit at the same positions as another's, as an
// L-matrix's sit at its partition matrix's, copies the table as it is.
type colTable struct {
	slots []int32
	hash  []uint64
	n     int
}

// find returns the position of the column whose cube is c, with hash
// h, or -1; cube returns the cube of the column at a position.
func (t *colTable) find(h uint64, c sop.Cube, cube func(pos int32) sop.Cube) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if pos := t.slots[i] - 1; t.hash[i] == h && cube(pos).Equal(c) {
			return pos
		}
	}
	return -1
}

// insert adds the column at position pos, whose cube is known to be
// absent.
func (t *colTable) insert(h uint64, pos int32) {
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = pos + 1
	t.hash[i] = h
	t.n++
}

// reset empties the table and keeps its size, the one the last
// matrix filled into it grew to.
func (t *colTable) reset() {
	clear(t.slots)
	t.n = 0
}

// copyFrom fills t with src's slots and hashes, reusing t's arrays: the
// table of a matrix whose columns are src's, at the same positions,
// under any labels. No cube is hashed again.
func (t *colTable) copyFrom(src *colTable) {
	t.slots = resize(t.slots, len(src.slots))
	t.hash = resize(t.hash, len(src.hash))
	copy(t.slots, src.slots)
	copy(t.hash, src.hash)
	t.n = src.n
}

func (t *colTable) grow() {
	oldSlots, oldHash := t.slots, t.hash
	size := 64
	if len(oldSlots) > 0 {
		size = len(oldSlots) * 2
	}
	t.slots = make([]int32, size)
	t.hash = make([]uint64, size)
	mask := uint64(size - 1)
	for j, c := range oldSlots {
		if c == 0 {
			continue
		}
		i := oldHash[j] & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = c
		t.hash[i] = oldHash[j]
	}
}

// Dump renders the matrix as a table resembling the paper's Figure 2,
// with column cubes across the top and one line per row showing the
// cube id of every entry.
func (m *Matrix) Dump(names *sop.Names) string {
	m.live()
	cols := append([]*Col(nil), m.cols...)
	sort.Slice(cols, func(i, j int) bool { return cols[i].ID < cols[j].ID })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s |", "row(co-kernel)", "id")
	for _, c := range cols {
		fmt.Fprintf(&b, " %8s", c.Cube.Format(names.Fmt()))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s %8s |", "", "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %8d", c.ID)
	}
	b.WriteByte('\n')
	for _, r := range m.rows {
		label := fmt.Sprintf("%s %s", names.Name(r.Node), r.CoKernel.Format(names.Fmt()))
		fmt.Fprintf(&b, "%-14s %8d |", label, r.ID)
		for _, c := range cols {
			if e, ok := r.Entry(c.ID); ok {
				fmt.Fprintf(&b, " %8d", e.CubeID)
			} else {
				fmt.Fprintf(&b, " %8s", ".")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
