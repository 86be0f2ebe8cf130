package kcm

import (
	"sort"

	"repro/internal/analysis/invariant"
	"repro/internal/bitset"
)

// Index is the dense fast-path view of a Matrix that the rectangle
// search runs on: rows and columns renumbered 0..n-1 in increasing
// label order, per-column row bitsets, and per-row dense column
// references aligned with Row.Entries.
//
// Dense positions follow label order, so iterating a column bitset in
// ascending bit order reproduces exactly the increasing-label search
// order of the Figure 1 enumeration — the property the §3 leftmost-
// column decomposition and all tie-breaking depend on.
//
// An Index is a snapshot: it is built lazily by Matrix.Index, cached,
// and dropped on any structural mutation. Callers must not mutate it.
type Index struct {
	// RowIDs and ColIDs map dense positions back to labels, each in
	// ascending label order.
	RowIDs []int64
	ColIDs []int64
	// Rows and Cols hold the corresponding *Row/*Col per dense
	// position.
	Rows []*Row
	Cols []*Col
	// ColRows[j] is the set of dense rows with an entry in dense
	// column j.
	ColRows []bitset.Set
	// RowRefs[i][k] is the dense column of Rows[i].Entries[k]. Since
	// entries are sorted by label and dense order follows label
	// order, each RowRefs[i] is ascending.
	RowRefs [][]int32
	// MaxCubeID mirrors Matrix.MaxCubeID at build time.
	MaxCubeID int64
	// MaxRowLen is the entry count of the longest row: no rectangle
	// has more columns, since each of its rows holds all of them.
	MaxRowLen int

	rowPos map[int64]int32
	colPos map[int64]int32
}

// Index returns the dense view of the matrix, building and caching it
// on first use. The returned index is shared and read-only; it remains
// valid until the next structural mutation of the matrix.
func (m *Matrix) Index() *Index {
	if m.index != nil {
		return m.index
	}
	nr, nc := len(m.rows), len(m.cols)
	ix := &Index{
		RowIDs:  make([]int64, nr),
		ColIDs:  make([]int64, nc),
		Rows:    make([]*Row, nr),
		Cols:    make([]*Col, nc),
		ColRows: make([]bitset.Set, nc),
		RowRefs: make([][]int32, nr),
		rowPos:  make(map[int64]int32, nr),
		colPos:  make(map[int64]int32, nc),

		MaxCubeID: m.maxCubeID,
	}
	copy(ix.Rows, m.rows)
	sort.Slice(ix.Rows, func(i, j int) bool { return ix.Rows[i].ID < ix.Rows[j].ID })
	for i, r := range ix.Rows {
		ix.RowIDs[i] = r.ID
		ix.rowPos[r.ID] = int32(i)
	}
	copy(ix.Cols, m.cols)
	sort.Slice(ix.Cols, func(i, j int) bool { return ix.Cols[i].ID < ix.Cols[j].ID })
	for j, c := range ix.Cols {
		ix.ColIDs[j] = c.ID
		ix.colPos[c.ID] = int32(j)
	}
	// One backing allocation for the column bitsets.
	colWords := bitset.Words(nr)
	colBits := make(bitset.Set, nc*colWords)
	for j := range ix.ColRows {
		ix.ColRows[j] = colBits[j*colWords : (j+1)*colWords]
	}
	refs := make([]int32, m.entries)
	for i, r := range ix.Rows {
		ix.MaxRowLen = max(ix.MaxRowLen, len(r.Entries))
		ix.RowRefs[i] = refs[:len(r.Entries):len(r.Entries)]
		refs = refs[len(r.Entries):]
		for k, e := range r.Entries {
			j := int(ix.colPos[e.Col])
			ix.RowRefs[i][k] = int32(j)
			ix.ColRows[j].Set(i)
		}
	}
	if invariant.Enabled {
		checkIndex(m, ix)
	}
	m.index = ix
	return ix
}

// RowPos returns the dense position of row id.
func (ix *Index) RowPos(id int64) (int, bool) {
	p, ok := ix.rowPos[id]
	return int(p), ok
}

// ColPos returns the dense position of column id.
func (ix *Index) ColPos(id int64) (int, bool) {
	p, ok := ix.colPos[id]
	return int(p), ok
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
