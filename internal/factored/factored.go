// Package factored implements factored forms — the tree
// representation of Boolean expressions that multi-level synthesis
// ultimately targets — and the kernel-based factoring algorithm
// (SIS's factor / MIS's good_factor family; Brayton et al. 1987).
//
// Kernel extraction (internal/extract, internal/core) restructures a
// network by materializing kernels shared *between* functions;
// factoring re-expresses one SOP *internally* as a product/sum tree,
// giving the factored literal count used as the final area estimate
// in synthesis flows. The paper reports SOP literal counts (LC), so
// the experiment harness uses those; this package completes the
// SIS-style flow for downstream users.
package factored

import (
	"fmt"
	"strings"

	"repro/internal/sop"
)

// Form is a node of a factored expression tree.
type Form struct {
	// Kind discriminates the node.
	Kind Kind
	// Lit is the literal of a leaf node.
	Lit sop.Lit
	// Args are the operands of an And/Or node (>= 2, except the
	// degenerate constants).
	Args []*Form
}

// Kind enumerates factored-form node kinds.
type Kind int

const (
	// LeafKind is a single literal.
	LeafKind Kind = iota
	// AndKind is a product of factors.
	AndKind
	// OrKind is a sum of terms.
	OrKind
	// ZeroKind is the constant 0.
	ZeroKind
	// OneKind is the constant 1.
	OneKind
)

// Leaf returns a literal leaf.
func Leaf(l sop.Lit) *Form { return &Form{Kind: LeafKind, Lit: l} }

// Zero and One return constant forms.
func Zero() *Form { return &Form{Kind: ZeroKind} }

// One returns the constant-1 form.
func One() *Form { return &Form{Kind: OneKind} }

// And builds a flattened product node, dropping 1-factors and
// collapsing to Zero if any factor is 0.
func And(args ...*Form) *Form {
	var flat []*Form
	for _, a := range args {
		switch a.Kind {
		case ZeroKind:
			return Zero()
		case OneKind:
			continue
		case AndKind:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	switch len(flat) {
	case 0:
		return One()
	case 1:
		return flat[0]
	}
	return &Form{Kind: AndKind, Args: flat}
}

// Or builds a flattened sum node, dropping 0-terms and collapsing to
// One if any term is 1.
func Or(args ...*Form) *Form {
	var flat []*Form
	for _, a := range args {
		switch a.Kind {
		case OneKind:
			return One()
		case ZeroKind:
			continue
		case OrKind:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	switch len(flat) {
	case 0:
		return Zero()
	case 1:
		return flat[0]
	}
	return &Form{Kind: OrKind, Args: flat}
}

// Literals returns the factored literal count: the number of leaves.
func (f *Form) Literals() int {
	switch f.Kind {
	case LeafKind:
		return 1
	case ZeroKind, OneKind:
		return 0
	}
	n := 0
	for _, a := range f.Args {
		n += a.Literals()
	}
	return n
}

// Format renders the form with the usual precedence (products bind
// tighter than sums; sums are parenthesized inside products).
func (f *Form) Format(name func(sop.Var) string) string {
	switch f.Kind {
	case ZeroKind:
		return "0"
	case OneKind:
		return "1"
	case LeafKind:
		s := ""
		if name != nil {
			s = name(f.Lit.Var())
		} else {
			s = fmt.Sprintf("v%d", f.Lit.Var())
		}
		if f.Lit.IsNeg() {
			s += "'"
		}
		return s
	case AndKind:
		parts := make([]string, len(f.Args))
		for i, a := range f.Args {
			if a.Kind == OrKind {
				parts[i] = "(" + a.Format(name) + ")"
			} else {
				parts[i] = a.Format(name)
			}
		}
		return strings.Join(parts, "*")
	default: // OrKind
		parts := make([]string, len(f.Args))
		for i, a := range f.Args {
			parts[i] = a.Format(name)
		}
		return strings.Join(parts, " + ")
	}
}

// String renders with v<N> names.
func (f *Form) String() string { return f.Format(nil) }
