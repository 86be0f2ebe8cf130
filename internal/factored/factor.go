package factored

import (
	"repro/internal/kernels"
	"repro/internal/sop"
)

// Factor recursively factors an SOP expression into a form, using the
// classical kernel-based scheme (MIS's good factoring):
//
//  1. constants and single cubes factor trivially;
//  2. otherwise divide out the largest common cube;
//  3. pick the best kernel divisor (the kernel whose extraction saves
//     the most literals within this function), divide f = q·k + r,
//     and recurse on q, k and r;
//  4. when no kernel helps, fall back to literal factoring: split on
//     the most frequent literal.
//
// The result is always algebraically equivalent: expanding it gives
// back the original SOP (a property test checks this).
func Factor(f sop.Expr) *Form {
	switch {
	case f.IsZero():
		return Zero()
	case f.IsOne():
		return One()
	}
	if f.NumCubes() == 1 {
		return cubeForm(f.Cube(0))
	}
	// Pull out the largest common cube first.
	free, cc := f.MakeCubeFree()
	if len(cc) > 0 {
		return And(cubeForm(cc), Factor(free))
	}
	// Best kernel divisor by literal savings inside f.
	if k, ok := bestDivisor(f); ok {
		q, r := f.Div(k)
		if !q.IsZero() && q.Mul(k).Add(r).Equal(f) {
			return Or(And(Factor(q), Factor(k)), Factor(r))
		}
	}
	// Literal factoring fallback: split on the most frequent literal.
	l, n := mostFrequentLit(f)
	if n >= 2 {
		withL := f.DivCube(sop.Cube{l})
		rest := f.Minus(withL.MulCube(sop.Cube{l}))
		return Or(And(Leaf(l), Factor(withL)), Factor(rest))
	}
	// Nothing shared at all: a flat sum of cubes.
	terms := make([]*Form, 0, f.NumCubes())
	for _, c := range f.Cubes() {
		terms = append(terms, cubeForm(c))
	}
	return Or(terms...)
}

func cubeForm(c sop.Cube) *Form {
	if c.IsUnit() {
		return One()
	}
	leaves := make([]*Form, len(c))
	for i, l := range c {
		leaves[i] = Leaf(l)
	}
	return And(leaves...)
}

// bestDivisor evaluates every kernel of f as an internal divisor and
// returns the one with the highest literal savings
// (value = lits(f) − lits(q) − numcubes(q) − lits(k) − lits(r),
// an SOP estimate of the factored benefit).
func bestDivisor(f sop.Expr) (sop.Expr, bool) {
	pairs := kernels.All(f, kernels.Options{})
	bestGain := 0
	var best sop.Expr
	found := false
	for _, p := range pairs {
		if p.Kernel.NumCubes() < 2 || p.Kernel.Equal(f) {
			continue
		}
		q, r := f.Div(p.Kernel)
		if q.IsZero() {
			continue
		}
		gain := f.Literals() - (q.Literals() + q.NumCubes() + p.Kernel.Literals() + r.Literals())
		if !found || gain > bestGain {
			bestGain = gain
			best = p.Kernel
			found = true
		}
	}
	if !found || bestGain < 0 {
		return sop.Expr{}, false
	}
	return best, true
}

func mostFrequentLit(f sop.Expr) (sop.Lit, int) {
	count := map[sop.Lit]int{}
	var best sop.Lit
	n := 0
	for _, c := range f.Cubes() {
		for _, l := range c {
			count[l]++
			if count[l] > n || (count[l] == n && l < best) {
				n = count[l]
				best = l
			}
		}
	}
	return best, n
}
