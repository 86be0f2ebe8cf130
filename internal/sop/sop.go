// Package sop implements the sum-of-products algebra that algebraic
// factorization is built on: literals, cubes, SOP expressions, and the
// algebraic (weak) division operators of Brayton et al. (MIS, 1987).
//
// The representation is deliberately close to the one the paper's
// definitions use: a literal is a variable or its negation, a cube is a
// set of literals with no variable in both phases, and an expression is
// a set of cubes. All exported operations keep cubes and expressions in
// canonical (sorted, deduplicated) form so that equality is structural.
package sop

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Var identifies a variable. Variable names live in a Names table (or
// in network.Network); the algebra only needs identities.
type Var int32

// Lit is a literal: a variable in positive or complemented phase.
// The encoding is v<<1|phase so literals of the same variable sort
// next to each other, positive phase first.
type Lit int32

// MkLit builds the literal for variable v, complemented when neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Pos returns the positive-phase literal of v.
func Pos(v Var) Lit { return MkLit(v, false) }

// Neg returns the complemented literal of v.
func Neg(v Var) Lit { return MkLit(v, true) }

// Var returns the variable of the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsNeg reports whether the literal is in complemented phase.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Cube is a product term: a sorted set of literals such that no
// variable occurs in both phases. The zero value is the unit cube "1".
type Cube []Lit

// NewCube builds a canonical cube from the given literals.
// It returns ok=false if some variable occurs in both phases
// (the product would be the constant 0).
func NewCube(lits ...Lit) (Cube, bool) {
	c := make(Cube, len(lits))
	copy(c, lits)
	slices.Sort(c)
	// Dedup and detect opposite phases.
	out := c[:0]
	for i, l := range c {
		if i > 0 {
			prev := out[len(out)-1]
			if prev == l {
				continue
			}
			if prev.Var() == l.Var() {
				return nil, false
			}
		}
		out = append(out, l)
	}
	return out, true
}

// MustCube is NewCube that panics on a contradictory literal set.
// It is intended for tests and literals known to be consistent.
//
//repolint:allow testonly -- cube literals for the tests of sop and power
func MustCube(lits ...Lit) Cube {
	c, ok := NewCube(lits...)
	if !ok {
		panic("sop: contradictory cube")
	}
	return c
}

// Clone returns an independent copy of the cube.
func (c Cube) Clone() Cube {
	out := make(Cube, len(c))
	copy(out, c)
	return out
}

// IsUnit reports whether the cube is the constant-1 product (no literals).
func (c Cube) IsUnit() bool { return len(c) == 0 }

// Weight is the number of literals in the cube (its contribution to
// the literal count of any expression containing it).
func (c Cube) Weight() int { return len(c) }

// Has reports whether the cube contains the literal.
func (c Cube) Has(l Lit) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i] >= l })
	return i < len(c) && c[i] == l
}

// HasVar reports whether the cube mentions the variable in either phase.
func (c Cube) HasVar(v Var) bool {
	return c.Has(Pos(v)) || c.Has(Neg(v))
}

// Contains reports whether c ⊇ d as literal sets, i.e. the cube d
// divides the cube c evenly.
func (c Cube) Contains(d Cube) bool {
	if len(d) > len(c) {
		return false
	}
	i := 0
	for _, l := range d {
		for i < len(c) && c[i] < l {
			i++
		}
		if i >= len(c) || c[i] != l {
			return false
		}
		i++
	}
	return true
}

// Equal reports structural equality of two canonical cubes.
func (c Cube) Equal(d Cube) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Compare orders canonical cubes first by length, then lexicographically.
// The length-first order makes smaller cubes sort first, which keeps
// expression canonicalization stable and cheap.
func (c Cube) Compare(d Cube) int {
	if len(c) != len(d) {
		if len(c) < len(d) {
			return -1
		}
		return 1
	}
	for i := range c {
		if c[i] != d[i] {
			if c[i] < d[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Intersect returns the literals common to both cubes (their largest
// common divisor as cubes).
func (c Cube) Intersect(d Cube) Cube {
	var out Cube
	i, j := 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i] == d[j]:
			out = append(out, c[i])
			i++
			j++
		case c[i] < d[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Union returns c ∪ d (the product c·d). ok is false when the cubes
// contain opposite phases of some variable, making the product 0.
func (c Cube) Union(d Cube) (Cube, bool) {
	out := make(Cube, 0, len(c)+len(d))
	i, j := 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i] == d[j]:
			out = append(out, c[i])
			i++
			j++
		case c[i] < d[j]:
			out = append(out, c[i])
			i++
		default:
			out = append(out, d[j])
			j++
		}
	}
	out = append(out, c[i:]...)
	out = append(out, d[j:]...)
	for k := 1; k < len(out); k++ {
		if out[k-1].Var() == out[k].Var() && out[k-1] != out[k] {
			return nil, false
		}
	}
	return out, true
}

// Minus returns the cube c with all literals of d removed (c / d when
// d divides c; more generally, the literal-set difference).
func (c Cube) Minus(d Cube) Cube {
	out := make(Cube, 0, len(c))
	j := 0
	for _, l := range c {
		for j < len(d) && d[j] < l {
			j++
		}
		if j < len(d) && d[j] == l {
			j++
			continue
		}
		out = append(out, l)
	}
	return out
}

// String renders the cube with variables named v<N>; use Format for
// real names.
func (c Cube) String() string {
	return c.Format(nil)
}

// Format renders the cube using name to map variables to identifiers.
// A nil name falls back to v<N>. The unit cube renders as "1" and a
// complemented literal as name'.
func (c Cube) Format(name func(Var) string) string {
	if len(c) == 0 {
		return "1"
	}
	var b strings.Builder
	for i, l := range c {
		if i > 0 {
			b.WriteByte('*')
		}
		if name != nil {
			b.WriteString(name(l.Var()))
		} else {
			fmt.Fprintf(&b, "v%d", l.Var())
		}
		if l.IsNeg() {
			b.WriteByte('\'')
		}
	}
	return b.String()
}
