package sop

// This file implements algebraic (weak) division, the workhorse of
// kernel extraction: dividing a function by a candidate divisor yields
// the quotient used to re-express the function as quotient·divisor +
// remainder.

// DivCube returns the quotient f / c of algebraic division by a cube:
// the cubes of f that contain c, each with c's literals removed.
func (f Expr) DivCube(c Cube) Expr {
	if c.IsUnit() {
		return f
	}
	var cs []Cube
	for _, fc := range f.cubes {
		if fc.Contains(c) {
			cs = append(cs, fc.Minus(c))
		}
	}
	return canon(cs)
}

// Div performs algebraic (weak) division f / g and returns the
// quotient q and remainder r such that f = q·g + r, where the product
// is algebraic and no cube of r is divisible by g. When g does not
// divide f at all, q is the constant 0 and r = f.
//
// The algorithm is the classical one: the quotient is the intersection
// over all cubes gᵢ of g of the cube-quotients f/gᵢ.
func (f Expr) Div(g Expr) (q, r Expr) {
	if g.IsZero() {
		return Zero(), f
	}
	if g.IsOne() {
		return f, Zero()
	}
	q = f.DivCube(g.cubes[0])
	for _, gc := range g.cubes[1:] {
		if q.IsZero() {
			break
		}
		q = q.intersect(f.DivCube(gc))
	}
	if q.IsZero() {
		return Zero(), f
	}
	r = f.Minus(q.Mul(g))
	return q, r
}

// intersect returns the cubes present in both canonical expressions.
func (f Expr) intersect(g Expr) Expr {
	var cs []Cube
	i, j := 0, 0
	for i < len(f.cubes) && j < len(g.cubes) {
		switch f.cubes[i].Compare(g.cubes[j]) {
		case 0:
			cs = append(cs, f.cubes[i])
			i++
			j++
		case -1:
			i++
		default:
			j++
		}
	}
	return Expr{cubes: cs}
}
