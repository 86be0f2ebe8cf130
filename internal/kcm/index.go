package kcm

import (
	"cmp"
	"slices"

	"repro/internal/analysis/invariant"
)

// Index is the dense fast-path view of a Matrix that the rectangle
// search runs on: rows and columns renumbered 0..n-1 in increasing
// label order, each column's dense rows as a list, and per-row dense
// column references aligned with Row.Entries. It costs O(entries), not
// O(rows × columns): the column lists share one slab of NumEntries.
//
// Dense positions follow label order, so walking a column's row list,
// or a row bitset in ascending bit order, reproduces exactly the
// increasing-label search order of the Figure 1 enumeration — the
// property the §3 leftmost-column decomposition and all tie-breaking
// depend on.
//
// An Index is a snapshot: it is built lazily by Matrix.Index and
// cached. A matrix is not written after its fill, so the cache is
// dropped only when a later fill takes over the matrix's storage.
// Callers must not mutate it. The first index of a matrix that a
// Patcher or Compose refilled reuses the arrays of the superseded
// matrix's index, but is always a new Index value, so a search memo
// bound to the old one rebinds.
type Index struct {
	// RowIDs and ColIDs map dense positions back to labels, each in
	// ascending label order.
	RowIDs []int64
	ColIDs []int64
	// Rows and Cols hold the corresponding *Row/*Col per dense
	// position.
	Rows []*Row
	Cols []*Col
	// ColRows[j] lists, ascending, the dense rows with an entry in
	// dense column j: Cols[j].RowIDs in dense numbering.
	ColRows [][]int32
	// RowRefs[i][k] is the dense column of Rows[i].Entries[k]. Since
	// entries are sorted by label and dense order follows label
	// order, each RowRefs[i] is ascending.
	RowRefs [][]int32
	// MaxCubeID mirrors Matrix.MaxCubeID at build time.
	MaxCubeID int64
	// MaxRowLen is the entry count of the longest row: no rectangle
	// has more columns, since each of its rows holds all of them.
	MaxRowLen int

	// m is the matrix the index snapshots, and dense maps each of its
	// columns' Matrix position (Col.pos) to its dense position.
	m     *Matrix
	dense []int32
	// colRowSlab and refSlab hold every ColRows and RowRefs list;
	// rowCopy and colCopy hold Rows and Cols when they are sorted
	// copies of the matrix's lists rather than the lists themselves.
	colRowSlab, refSlab []int32
	rowCopy             []*Row
	colCopy             []*Col
}

// Index returns the dense view of the matrix, building and caching it
// on first use. The returned index is shared and read-only; it remains
// valid as long as the matrix does.
func (m *Matrix) Index() *Index {
	m.live()
	if m.index != nil {
		return m.index
	}
	var old Index
	if m.slabs.ix != nil {
		old, m.slabs.ix = *m.slabs.ix, nil
	}
	nr, nc := len(m.rows), len(m.cols)
	ix := &Index{
		RowIDs:     resize(old.RowIDs, nr),
		ColIDs:     resize(old.ColIDs, nc),
		ColRows:    resize(old.ColRows, nc),
		RowRefs:    resize(old.RowRefs, nr),
		m:          m,
		dense:      resize(old.dense, nc),
		colRowSlab: resize(old.colRowSlab, m.entries),
		refSlab:    resize(old.refSlab, m.entries),

		MaxCubeID: m.maxCubeID,
	}
	ix.Rows, ix.rowCopy = byLabel(m.rows, rowLabel, old.rowCopy)
	ix.Cols, ix.colCopy = byLabel(m.cols, colLabel, old.colCopy)
	for i, r := range ix.Rows {
		ix.RowIDs[i] = r.ID
	}
	// Each column's list is a slice of one slab, sized by its RowIDs,
	// and filled in ascending dense row order below.
	rows := ix.colRowSlab
	for j, c := range ix.Cols {
		ix.ColIDs[j] = c.ID
		ix.dense[c.pos] = int32(j)
		n := len(c.RowIDs)
		ix.ColRows[j] = rows[:0:n]
		rows = rows[n:]
	}
	refs := ix.refSlab
	for i, r := range ix.Rows {
		ix.MaxRowLen = max(ix.MaxRowLen, len(r.Entries))
		ix.RowRefs[i] = refs[:len(r.Entries):len(r.Entries)]
		refs = refs[len(r.Entries):]
		for k, e := range r.Entries {
			j := ix.dense[m.colAt.get(e.Col).pos]
			ix.RowRefs[i][k] = j
			ix.ColRows[j] = append(ix.ColRows[j], int32(i))
		}
	}
	if invariant.Enabled {
		checkIndex(m, ix)
	}
	m.index = ix
	return ix
}

// byLabel returns items in ascending label order: items itself when it
// already is, as a Patcher's rows and columns are, else a sorted copy
// made in buf's array when it is long enough. The second result is the
// copy, or nil when items is returned.
func byLabel[T any](items []*T, label func(*T) int64, buf []*T) (byID, copied []*T) {
	cmpID := func(a, b *T) int { return cmp.Compare(label(a), label(b)) }
	if slices.IsSortedFunc(items, cmpID) {
		return items[:len(items):len(items)], nil
	}
	sorted := resize(buf, len(items))
	copy(sorted, items)
	slices.SortFunc(sorted, cmpID)
	return sorted, sorted
}

// ColPos returns the dense position of column id.
func (ix *Index) ColPos(id int64) (int, bool) {
	c := ix.m.Col(id)
	if c == nil {
		return 0, false
	}
	return int(ix.dense[c.pos]), true
}

// EntryAt returns, for dense row r, the position k in Rows[r].Entries
// of the entry in dense column dc, or -1 when the row has no entry
// there. RowRefs[r] is ascending, so this is a binary search.
func (ix *Index) EntryAt(r, dc int) int {
	refs := ix.RowRefs[r]
	lo, hi := 0, len(refs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if refs[mid] < int32(dc) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(refs) && refs[lo] == int32(dc) {
		return lo
	}
	return -1
}
