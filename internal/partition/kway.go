package partition

import (
	"repro/internal/network"
	"repro/internal/sop"
)

// KWay partitions the nodes of nw into k balanced parts by recursive
// FM bisection and returns the node lists. k=1 returns all nodes in
// one part. Parts are never empty unless there are fewer nodes than
// parts.
func KWay(nw *network.Network, nodes []sop.Var, k int, opt Options) [][]sop.Var {
	if nodes == nil {
		nodes = nw.NodeVars()
	}
	g := FromNetwork(nw, nodes)
	idx := make([]int, len(nodes))
	for i := range idx {
		idx[i] = i
	}
	parts := kwayIdx(g, idx, k, opt)
	out := make([][]sop.Var, len(parts))
	for i, p := range parts {
		for _, vi := range p {
			out[i] = append(out[i], g.Verts[vi])
		}
	}
	return out
}

// kwayIdx recursively bisects the induced subgraph over verts into k
// parts, returning vertex-index lists in g's index space.
func kwayIdx(g *Graph, verts []int, k int, opt Options) [][]int {
	if k <= 1 {
		return [][]int{verts}
	}
	if len(verts) <= 1 {
		// Fewer vertices than requested parts: pad with empties so
		// the caller always receives exactly k parts.
		out := make([][]int, k)
		out[0] = verts
		return out
	}
	kl := k / 2
	kr := k - kl
	sub, back := g.subgraph(verts)
	assign, _ := sub.Bisect(float64(kl)/float64(k), opt)
	var left, right []int
	for i, side := range assign {
		if side == 0 {
			left = append(left, back[i])
		} else {
			right = append(right, back[i])
		}
	}
	// Guard against degenerate empty sides (tiny graphs): steal one.
	if len(left) == 0 && len(right) > 1 {
		left = append(left, right[len(right)-1])
		right = right[:len(right)-1]
	}
	if len(right) == 0 && len(left) > 1 {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	out := append(kwayIdx(g, left, kl, opt), kwayIdx(g, right, kr, opt)...)
	return out
}

// KWayCut returns the total weight of edges crossing between
// different parts of a k-way partition of nw's node graph.
//
//repolint:allow testonly -- the cut metric the tests of partition and gen measure partitions with
func KWayCut(nw *network.Network, parts [][]sop.Var) int {
	var nodes []sop.Var
	where := map[sop.Var]int{}
	for i, p := range parts {
		for _, v := range p {
			where[v] = i
			nodes = append(nodes, v)
		}
	}
	g := FromNetwork(nw, nodes)
	assign := make([]int, len(g.Verts))
	for i, v := range g.Verts {
		assign[i] = where[v]
	}
	return g.CutSize(assign)
}
