package extract

import (
	"slices"

	"repro/internal/kcm"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

// CubeExtract performs common-cube extraction (paper §2: "when the
// subexpression is a cube ... the factoring is called cube
// extraction") on the rectangle-covering engine of KernelExtract. Its
// matrix is the cube-literal matrix of the given nodes: a row per cube
// of two or more literals, with the unit co-kernel, and a column per
// literal, so a rectangle's columns form a cube common to all its rows.
// Extracting a common cube of w literals that k cubes contain saves
// k·(w−1) − w literals, which is the gain rect gives such a rectangle.
//
// The matrix is covered greedily as in KernelExtract: each search
// through a rect.Cover harvests up to opt.BatchK cube-disjoint
// rectangles under opt.Rect's bounds, and each rectangle's cube
// becomes a new node that replaces it in every cube of the rectangle's
// nodes containing it. maxIters, when positive, bounds the number of
// searches. New nodes do not join this call's matrix; the next call
// sees each as one more literal, so longer common cubes are built up
// across calls. Passing nil nodes factors every current node.
func CubeExtract(nw *network.Network, nodes []sop.Var, maxIters int, opt Options) Result {
	if nodes == nil {
		nodes = nw.NodeVars()
	}
	m := cubeLiteralMatrix(nw, nodes)
	covered := rect.NewCover(m)
	cfg := opt.Rect
	cfg.Cover = covered
	var res Result
	for maxIters <= 0 || res.Iterations < maxIters {
		res.Iterations++
		batch, stats := rect.BestK(m, cfg, nil, opt.BatchK)
		res.Work.SearchVisits += stats.Visits
		if len(batch) == 0 {
			break
		}
		for _, r := range batch {
			markCovered(m, r, covered)
			c := make(sop.Cube, len(r.Cols))
			for i, col := range r.Cols {
				c[i] = m.Col(col).Cube[0]
			}
			// The matrix is not rebuilt as cubes are rewritten, so a row
			// may stand for a cube an earlier rectangle rewrote: extract
			// c only while the current cubes containing it still gain.
			groups := GroupRows(m, r)
			k := 0
			for _, nr := range groups {
				for _, fc := range nw.Node(nr.Node).Fn.Cubes() {
					if fc.Contains(c) {
						k++
					}
				}
			}
			if k*(len(c)-1) <= len(c) {
				continue
			}
			v := nw.NewNodeVar(sop.NewExpr(c))
			for _, nr := range groups {
				fn := nw.Node(nr.Node).Fn
				res.Work.DivisionCubes += fn.NumCubes()
				nw.SetFn(nr.Node, substituteCube(fn, v, c))
			}
			res.Extracted++
			res.GainEstimate += r.Gain
		}
	}
	return res
}

// cubeLiteralMatrix builds the cube-literal matrix of nodes. Its rows
// are the cubes of two or more literals, in node and then cube order,
// labeled 1, 2, …; a one-literal cube contains no common cube worth
// extracting. Its columns are the distinct literals of those cubes,
// labeled 1, 2, … in literal order, each with the one-literal cube.
// Every literal of a row's cube is an entry of weight 1 with a cube id
// of its own, so covering an entry spends one literal occurrence.
func cubeLiteralMatrix(nw *network.Network, nodes []sop.Var) *kcm.Matrix {
	var rows []kcm.Row
	var cubes []sop.Cube
	var lits []sop.Lit
	for _, v := range nodes {
		for _, c := range nw.Node(v).Fn.Cubes() {
			if len(c) >= 2 {
				rows = append(rows, kcm.Row{ID: int64(len(rows) + 1), Node: v})
				cubes = append(cubes, c)
				lits = append(lits, c...)
			}
		}
	}
	// One entry per literal occurrence, its cube id the running count.
	entries := make([]kcm.Entry, 0, len(lits))
	slices.Sort(lits)
	lits = slices.Compact(lits)
	cols := make([]kcm.Col, len(lits))
	for i, l := range lits {
		cols[i] = kcm.Col{ID: int64(i + 1), Cube: sop.Cube{l}}
	}
	for i, c := range cubes {
		start := len(entries)
		for _, l := range c {
			col, _ := slices.BinarySearch(lits, l)
			entries = append(entries, kcm.Entry{Col: int64(col + 1), CubeID: int64(len(entries) + 1), Weight: 1})
		}
		rows[i].Entries = entries[start:]
	}
	return kcm.New(cols, rows)
}

// substituteCube rewrites every cube of fn containing c to use the
// literal of v instead of c's literals.
func substituteCube(fn sop.Expr, v sop.Var, c sop.Cube) sop.Expr {
	cubes := make([]sop.Cube, 0, fn.NumCubes())
	for _, fc := range fn.Cubes() {
		if fc.Contains(c) {
			rest := fc.Minus(c)
			nc, ok := rest.Union(sop.Cube{sop.Pos(v)})
			if ok {
				cubes = append(cubes, nc)
				continue
			}
		}
		cubes = append(cubes, fc.Clone())
	}
	return sop.NewExpr(cubes...)
}
