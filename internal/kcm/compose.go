package kcm

import "repro/internal/analysis/invariant"

// Part is one source of Compose's rows: the rows of M, whose column k
// is labeled M.Cols()[0].ID+k, as a Patcher labels them. An entry in
// column k moves to column To[k] of the composed matrix, or is dropped
// when To[k] is negative; a row left with no entry is dropped. A nil
// To keeps every entry at its own column position, and every row.
type Part struct {
	M  *Matrix
	To []int32
}

// Compose builds a matrix whose columns are those of parts[own].M,
// column k relabeled labels[k], and whose rows are the rows of every
// part: parts[own]'s first, then the others' in part order. Row labels,
// nodes, co-kernels and entries' cube ids and weights are kept; each
// row's entries are re-sorted only when relabeling broke label order.
//
// It is processor j's L-shaped matrix of §5.1 when parts are the
// position-labeled partition matrices in processor order, own is j,
// parts[j].To is nil, and the other parts' To keep only the columns j
// owns (see lshape.AssembleProc).
//
// The build is two passes over exact-size slabs: one counts the rows
// and entries each part keeps, the other fills them. A column's
// position follows from its label by arithmetic, and the cube table is
// a copy of parts[own].M's, whose columns sit at the same positions, so
// nothing is hashed.
// The parts' row ids must ascend in part order, as offset labels do:
// each column's RowIDs are filled in that order. The parts are only
// read, so several Compose calls may share them.
//
// prev, when not nil, is a matrix an earlier Compose returned and the
// caller has done with, such as the last call's L-matrix of the same
// processor: the new matrix is filled into its storage, and prev
// reads as empty afterwards. It must not be one of the parts.
func Compose(parts []Part, own int, labels []int64, prev *Matrix) *Matrix {
	src := parts[own].M
	nr, ne := 0, 0
	for _, pt := range parts {
		pt.M.live()
		if invariant.Enabled {
			invariant.Assert(prev == nil || pt.M != prev, "Compose refilling one of its own parts")
		}
		if pt.To == nil {
			nr += len(pt.M.rows)
			ne += pt.M.entries
			continue
		}
		first := pt.M.firstLabel()
		for _, r := range pt.M.rows {
			kept := 0
			for _, e := range r.Entries {
				if pt.To[e.Col-first] >= 0 {
					kept++
				}
			}
			if kept > 0 {
				nr++
				ne += kept
			}
		}
	}

	m := refill(prev)
	s := m.slabs
	m.entries = ne
	s.cols = resize(s.cols, len(src.cols))
	m.cols = resize(m.cols, len(src.cols))
	for k, c := range src.cols {
		s.cols[k] = Col{ID: labels[k], Cube: c.Cube, Hash: c.Hash, pos: int32(k)}
		m.cols[k] = &s.cols[k]
	}
	m.colTab.copyFrom(&src.colTab)

	// The slabs hold the rows in part order, the ascending-id order
	// finish fills RowIDs in; Rows() lists parts[own]'s first.
	rowSlab := resize(s.rows, nr)
	entrySlab := resize(s.entries, ne)
	colRefs := resize(s.colRefs, ne)
	s.rows, s.entries, s.colRefs = rowSlab, entrySlab, colRefs
	ri, eoff, ownLo, ownHi := 0, 0, 0, 0
	for x, pt := range parts {
		if x == own {
			ownLo = ri
		}
		first := pt.M.firstLabel()
		for _, r := range pt.M.rows {
			start := eoff
			for _, e := range r.Entries {
				pos := int32(e.Col - first)
				if pt.To != nil {
					if pos = pt.To[pos]; pos < 0 {
						continue
					}
				}
				e.Col = labels[pos]
				entrySlab[eoff] = e
				colRefs[eoff] = pos
				eoff++
				m.maxCubeID = max(m.maxCubeID, e.CubeID)
			}
			if pt.To != nil && eoff == start {
				continue
			}
			rowSlab[ri] = Row{ID: r.ID, Node: r.Node, CoKernel: r.CoKernel, Entries: entrySlab[start:eoff:eoff]}
			slicesSortEntries(rowSlab[ri].Entries)
			ri++
		}
		if x == own {
			ownHi = ri
		}
	}
	m.rows = resize(m.rows, nr)
	k := 0
	for i := range rowSlab[ownLo:ownHi] {
		m.rows[k] = &rowSlab[ownLo+i]
		k++
	}
	for i := range rowSlab {
		if i < ownLo || i >= ownHi {
			m.rows[k] = &rowSlab[i]
			k++
		}
	}
	m.finish(rowSlab, colRefs)
	return m
}

// firstLabel returns the label of column 0: a position-labeled matrix
// labels column k firstLabel()+k. A matrix with no column has no entry
// to place.
func (m *Matrix) firstLabel() int64 {
	if len(m.cols) == 0 {
		return 0
	}
	if invariant.Enabled {
		for k, c := range m.cols {
			invariant.Assert(c.ID == m.cols[0].ID+int64(k),
				"column %d labeled %d, not by its position after %d", k, c.ID, m.cols[0].ID)
		}
	}
	return m.cols[0].ID
}

// finish files the rows and columns by label, each band allocated at
// most once at its exact length, gives every column its RowIDs from
// one slab, then drops the cached index. rows holds every row of the
// matrix in ascending id order, and colRefs the column position of
// each of their entries, row after row (within a row, in any order).
// The RowIDs slab and the per-column counts are refilled in the
// matrix's slabs.
func (m *Matrix) finish(rows []Row, colRefs []int32) {
	s := m.slabs
	m.rowAt.fill(m.rows, rowLabel)
	m.colAt.fill(m.cols, colLabel)
	counts := resize(s.counts, len(m.cols))
	clear(counts)
	for _, cp := range colRefs {
		counts[cp]++
	}
	slab := resize(s.rowIDs, len(colRefs))
	s.counts, s.rowIDs = counts, slab
	off := int32(0)
	for i, c := range m.cols {
		c.RowIDs = slab[off : off : off+counts[i]]
		off += counts[i]
	}
	cur := 0
	for i := range rows {
		r := &rows[i]
		if invariant.Enabled && i > 0 {
			invariant.Assert(rows[i-1].ID < r.ID, "row %d follows row %d: RowIDs would not ascend", r.ID, rows[i-1].ID)
		}
		for _, cp := range colRefs[cur : cur+len(r.Entries)] {
			c := m.cols[cp]
			c.RowIDs = append(c.RowIDs, r.ID)
		}
		cur += len(r.Entries)
	}
	m.invalidate()
}
