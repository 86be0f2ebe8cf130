package kcm

import (
	"slices"

	"repro/internal/analysis/invariant"
)

// checkIndex cross-checks a freshly built dense Index against the
// label-keyed matrix it snapshots: dense numbering must follow strictly
// increasing label order (the property the Figure 1 enumeration order
// rests on), every matrix entry must appear in exactly the right row
// references, each column's row list must be its RowIDs in dense
// numbering, ascending, and the lists must hold one row per entry, so
// no stale row survives. Runs only under the invariants build tag
// (invariant.Enabled gates every call site).
func checkIndex(m *Matrix, ix *Index) {
	for i := 1; i < len(ix.RowIDs); i++ {
		invariant.Assert(ix.RowIDs[i-1] < ix.RowIDs[i],
			"dense row order broken: RowIDs[%d]=%d >= RowIDs[%d]=%d", i-1, ix.RowIDs[i-1], i, ix.RowIDs[i])
	}
	for j := 1; j < len(ix.ColIDs); j++ {
		invariant.Assert(ix.ColIDs[j-1] < ix.ColIDs[j],
			"dense column order broken: ColIDs[%d]=%d >= ColIDs[%d]=%d", j-1, ix.ColIDs[j-1], j, ix.ColIDs[j])
	}
	for i, r := range ix.Rows {
		invariant.Assert(len(ix.RowRefs[i]) == len(r.Entries),
			"row %d: %d dense refs for %d entries", r.ID, len(ix.RowRefs[i]), len(r.Entries))
		for k, e := range r.Entries {
			j, ok := ix.ColPos(e.Col)
			invariant.Assert(ok, "row %d entry col %d missing from dense index", r.ID, e.Col)
			invariant.Assert(int(ix.RowRefs[i][k]) == j,
				"row %d entry %d: dense ref %d != col pos %d", r.ID, k, ix.RowRefs[i][k], j)
		}
	}
	listed := 0
	for j, c := range ix.Cols {
		rows := ix.ColRows[j]
		invariant.Assert(len(rows) == len(c.RowIDs),
			"col %d: %d dense rows for %d RowIDs", c.ID, len(rows), len(c.RowIDs))
		for k, id := range c.RowIDs {
			i, ok := slices.BinarySearch(ix.RowIDs, id)
			invariant.Assert(ok && k < len(rows) && int(rows[k]) == i,
				"col %d: ColRows[%d] does not hold row %d at its dense position %d", c.ID, k, id, i)
		}
		listed += len(rows)
	}
	invariant.Assert(listed == m.entries,
		"column lists hold %d rows for %d matrix entries", listed, m.entries)
	invariant.Assert(ix.MaxCubeID == m.maxCubeID,
		"index MaxCubeID %d != matrix %d", ix.MaxCubeID, m.maxCubeID)
}
