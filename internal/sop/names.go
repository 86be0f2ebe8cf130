package sop

import (
	"fmt"
	"strings"
)

// Names is an interning table mapping variable names to Vars and back.
// It is the bridge between textual circuit formats and the algebra.
// Names is not safe for concurrent mutation; networks share one table
// and all parallel algorithms in this module only read it.
type Names struct {
	byName map[string]Var
	byVar  []string
}

// NewNames returns an empty interning table.
func NewNames() *Names {
	return &Names{byName: map[string]Var{}}
}

// Intern returns the Var for name, allocating one on first use.
func (n *Names) Intern(name string) Var {
	if v, ok := n.byName[name]; ok {
		return v
	}
	v := Var(len(n.byVar))
	n.byName[name] = v
	n.byVar = append(n.byVar, name)
	return v
}

// Lookup returns the Var for name if it has been interned.
func (n *Names) Lookup(name string) (Var, bool) {
	v, ok := n.byName[name]
	return v, ok
}

// Name returns the name of v, or "v<N>" if v was never interned.
func (n *Names) Name(v Var) string {
	if int(v) < len(n.byVar) {
		return n.byVar[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Clone returns an independent copy of the table with identical
// variable assignments. Replicated-circuit workers clone the table so
// each can intern new node names without sharing mutable state.
func (n *Names) Clone() *Names {
	cp := &Names{
		byName: make(map[string]Var, len(n.byName)),
		byVar:  append([]string(nil), n.byVar...),
	}
	for k, v := range n.byName {
		cp.byName[k] = v
	}
	return cp
}

// Fmt returns a formatting callback suitable for Cube.Format and
// Expr.Format.
func (n *Names) Fmt() func(Var) string {
	return func(v Var) string { return n.Name(v) }
}

// ParseExpr parses a textual SOP expression such as
//
//	a*f + b*f + a'*d*e
//
// interning variable names into n. The grammar is: sum of products,
// '+' separates cubes, '*' (or juxtaposition with spaces) separates
// literals, a trailing apostrophe or a leading '!' complements a
// literal, "0" is the empty sum and "1" the unit cube.
func ParseExpr(n *Names, s string) (Expr, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" {
		return Zero(), nil
	}
	if s == "1" {
		return One(), nil
	}
	var cubes []Cube
	for _, term := range strings.Split(s, "+") {
		term = strings.TrimSpace(term)
		if term == "" {
			return Expr{}, fmt.Errorf("sop: empty product term in %q", s)
		}
		if term == "1" {
			cubes = append(cubes, Cube{})
			continue
		}
		var lits []Lit
		for _, tok := range splitProduct(term) {
			lit, err := parseLit(n, tok)
			if err != nil {
				return Expr{}, err
			}
			lits = append(lits, lit)
		}
		c, ok := NewCube(lits...)
		if !ok {
			// A contradictory product term is the constant 0:
			// dropping it preserves the function.
			continue
		}
		cubes = append(cubes, c)
	}
	return NewExpr(cubes...), nil
}

// MustParseExpr is ParseExpr that panics on error (tests, literals).
func MustParseExpr(n *Names, s string) Expr {
	f, err := ParseExpr(n, s)
	if err != nil {
		panic(err)
	}
	return f
}

func splitProduct(term string) []string {
	fields := strings.FieldsFunc(term, func(r rune) bool {
		return r == '*' || r == ' ' || r == '\t'
	})
	out := fields[:0]
	for _, f := range fields {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseLit(n *Names, tok string) (Lit, error) {
	neg := false
	if strings.HasPrefix(tok, "!") {
		neg = true
		tok = tok[1:]
	}
	if strings.HasSuffix(tok, "'") {
		neg = !neg
		tok = tok[:len(tok)-1]
	}
	if tok == "" {
		return 0, fmt.Errorf("sop: empty literal token")
	}
	return MkLit(n.Intern(tok), neg), nil
}
