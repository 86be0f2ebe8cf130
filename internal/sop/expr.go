package sop

import (
	"slices"
	"sort"
	"strings"
)

// Expr is a sum-of-products expression: a canonical (sorted, duplicate
// free) set of cubes. The zero value is the constant 0 (empty sum).
// The constant 1 is the expression containing only the unit cube.
type Expr struct {
	cubes []Cube
}

// Zero returns the constant-0 expression (no cubes).
func Zero() Expr { return Expr{} }

// One returns the constant-1 expression (single unit cube).
func One() Expr { return NewExpr(Cube{}) }

// NewExpr builds a canonical expression from the given cubes.
// Duplicate cubes are merged; cube slices are not copied, so callers
// must not mutate them afterwards.
func NewExpr(cubes ...Cube) Expr {
	cs := make([]Cube, len(cubes))
	copy(cs, cubes)
	return canon(cs)
}

func canon(cs []Cube) Expr {
	// Division results are usually already in canonical order; a linear
	// sortedness check dodges the SortFunc setup on the hot path.
	sorted := true
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Compare(cs[i]) > 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		slices.SortFunc(cs, Cube.Compare)
	}
	out := cs[:0]
	for i, c := range cs {
		if i > 0 && out[len(out)-1].Compare(c) == 0 {
			continue
		}
		out = append(out, c)
	}
	return Expr{cubes: out}
}

// NumCubes returns the number of cubes (product terms).
func (f Expr) NumCubes() int { return len(f.cubes) }

// Cube returns the i-th cube in canonical order. The returned slice
// must not be mutated.
func (f Expr) Cube(i int) Cube { return f.cubes[i] }

// Cubes returns the underlying cube slice. It must be treated as
// read-only.
func (f Expr) Cubes() []Cube { return f.cubes }

// IsZero reports whether the expression is the constant 0.
func (f Expr) IsZero() bool { return len(f.cubes) == 0 }

// IsOne reports whether the expression is the constant 1.
func (f Expr) IsOne() bool { return len(f.cubes) == 1 && f.cubes[0].IsUnit() }

// Literals returns the total number of literals in the expression,
// the first-order area estimate used throughout the paper (LC).
func (f Expr) Literals() int {
	n := 0
	for _, c := range f.cubes {
		n += len(c)
	}
	return n
}

// Clone returns a deep copy of the expression.
func (f Expr) Clone() Expr {
	cs := make([]Cube, len(f.cubes))
	for i, c := range f.cubes {
		cs[i] = c.Clone()
	}
	return Expr{cubes: cs}
}

// Equal reports structural equality of two canonical expressions.
func (f Expr) Equal(g Expr) bool {
	if len(f.cubes) != len(g.cubes) {
		return false
	}
	for i := range f.cubes {
		if f.cubes[i].Compare(g.cubes[i]) != 0 {
			return false
		}
	}
	return true
}

// ContainsCube reports whether the expression has a cube structurally
// equal to c.
func (f Expr) ContainsCube(c Cube) bool {
	i := sort.Search(len(f.cubes), func(i int) bool { return f.cubes[i].Compare(c) >= 0 })
	return i < len(f.cubes) && f.cubes[i].Compare(c) == 0
}

// Add returns the canonical sum f + g.
func (f Expr) Add(g Expr) Expr {
	cs := make([]Cube, 0, len(f.cubes)+len(g.cubes))
	cs = append(cs, f.cubes...)
	cs = append(cs, g.cubes...)
	return canon(cs)
}

// AddCube returns f + c.
func (f Expr) AddCube(c Cube) Expr {
	cs := make([]Cube, 0, len(f.cubes)+1)
	cs = append(cs, f.cubes...)
	cs = append(cs, c)
	return canon(cs)
}

// Minus returns the cubes of f that are not cubes of g (set
// difference on product terms, not Boolean subtraction).
func (f Expr) Minus(g Expr) Expr {
	var cs []Cube
	for _, c := range f.cubes {
		if !g.ContainsCube(c) {
			cs = append(cs, c)
		}
	}
	return canon(cs)
}

// MulCube returns the product f · c. Cubes that would become
// contradictory (x·x') vanish.
func (f Expr) MulCube(c Cube) Expr {
	cs := make([]Cube, 0, len(f.cubes))
	for _, fc := range f.cubes {
		if u, ok := fc.Union(c); ok {
			cs = append(cs, u)
		}
	}
	return canon(cs)
}

// Mul returns the algebraic product f · g (pairwise cube products,
// contradictions dropped).
func (f Expr) Mul(g Expr) Expr {
	cs := make([]Cube, 0, len(f.cubes)*len(g.cubes))
	for _, fc := range f.cubes {
		for _, gc := range g.cubes {
			if u, ok := fc.Union(gc); ok {
				cs = append(cs, u)
			}
		}
	}
	return canon(cs)
}

// CommonCube returns the largest cube dividing every cube of f
// (the intersection of all cubes). For the constant 0 it returns the
// unit cube.
func (f Expr) CommonCube() Cube {
	if len(f.cubes) == 0 {
		return Cube{}
	}
	common := f.cubes[0].Clone()
	for _, c := range f.cubes[1:] {
		common = common.Intersect(c)
		if len(common) == 0 {
			break
		}
	}
	return common
}

// IsCubeFree reports whether no non-unit cube divides f evenly —
// the precondition for f to be a kernel.
//
//repolint:allow testonly -- the kernel definition the tests of sop and kernels check generated kernels against
func (f Expr) IsCubeFree() bool {
	if len(f.cubes) <= 1 {
		// A single cube divides itself; only the unit-cube
		// expression (constant 1) is cube-free among 1-cube
		// expressions. Constant 0 is conventionally not cube-free.
		return len(f.cubes) == 1 && f.cubes[0].IsUnit()
	}
	return len(f.CommonCube()) == 0
}

// MakeCubeFree divides out the largest common cube and returns the
// cube-free quotient along with the cube that was removed.
func (f Expr) MakeCubeFree() (Expr, Cube) {
	cc := f.CommonCube()
	if len(cc) == 0 {
		return f, Cube{}
	}
	return f.DivCube(cc), cc
}

// Support appends the set of variables appearing in f to dst, sorted
// and deduplicated.
func (f Expr) Support() []Var {
	seen := map[Var]bool{}
	var out []Var
	for _, c := range f.cubes {
		for _, l := range c {
			if !seen[l.Var()] {
				seen[l.Var()] = true
				out = append(out, l.Var())
			}
		}
	}
	slices.Sort(out)
	return out
}

// HasVar reports whether any cube of f mentions v in either phase.
func (f Expr) HasVar(v Var) bool {
	for _, c := range f.cubes {
		if c.HasVar(v) {
			return true
		}
	}
	return false
}

// String renders the expression with v<N> variable names.
func (f Expr) String() string { return f.Format(nil) }

// Format renders the expression using name for variable identifiers.
// Constant 0 renders as "0".
func (f Expr) Format(name func(Var) string) string {
	if len(f.cubes) == 0 {
		return "0"
	}
	parts := make([]string, len(f.cubes))
	for i, c := range f.cubes {
		parts[i] = c.Format(name)
	}
	return strings.Join(parts, " + ")
}
