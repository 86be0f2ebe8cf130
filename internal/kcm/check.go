package kcm

import "repro/internal/analysis/invariant"

// checkIndex cross-checks a freshly built dense Index against the
// map-backed matrix it snapshots: dense numbering must follow strictly
// increasing label order (the property the Figure 1 enumeration order
// rests on), every matrix entry must appear in exactly the right
// bitset positions and row references, and the bitset population must
// equal the entry count so no stale bit survives. Runs only under the
// invariants build tag (invariant.Enabled gates every call site).
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
			invariant.Assert(ix.ColRows[j].Test(i), "col %d: ColRows missing dense row %d", e.Col, i)
		}
	}
	colBits := 0
	for j := range ix.ColRows {
		colBits += ix.ColRows[j].Count()
	}
	invariant.Assert(colBits == m.entries,
		"column bitsets hold %d bits for %d matrix entries", colBits, m.entries)
	invariant.Assert(ix.MaxCubeID == m.maxCubeID,
		"index MaxCubeID %d != matrix %d", ix.MaxCubeID, m.maxCubeID)
}
