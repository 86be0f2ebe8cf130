// Package equiv checks functional equivalence of two Boolean networks
// by simulation: exhaustively for small input counts, and with seeded
// random vectors otherwise. Factorization must never change network
// functions, so every extraction algorithm in this module is tested
// through this checker.
package equiv

import (
	"fmt"
	"math/rand"

	"repro/internal/network"
	"repro/internal/sop"
)

// Options tunes the check.
type Options struct {
	// ExhaustiveLimit is the maximum number of primary inputs for
	// which all 2^n vectors are tried. Default 12.
	ExhaustiveLimit int
	// RandomVectors is the number of random vectors beyond the
	// exhaustive limit. Default 2048.
	RandomVectors int
	// Seed seeds the random vector generator.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.ExhaustiveLimit == 0 {
		o.ExhaustiveLimit = 12
	}
	if o.RandomVectors == 0 {
		o.RandomVectors = 2048
	}
	return o
}

// Check compares the outputs of a and b on identical input vectors
// and returns an error describing the first mismatch. The networks
// must declare the same inputs and outputs by name (order may differ
// for inputs; outputs are compared by name).
func Check(a, b *network.Network, opt Options) error {
	opt = opt.withDefaults()
	if err := compatible(a, b); err != nil {
		return err
	}
	ins := a.Inputs()
	n := len(ins)
	if n <= opt.ExhaustiveLimit {
		total := 1 << uint(n)
		for bits := 0; bits < total; bits++ {
			if err := compareVector(a, b, vector(a, b, ins, uint64(bits))); err != nil {
				return err
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for i := 0; i < opt.RandomVectors; i++ {
		bits := rng.Uint64()
		hi := rng.Uint64()
		assignA := map[sop.Var]bool{}
		assignB := map[sop.Var]bool{}
		for j, v := range ins {
			var bit bool
			if j < 64 {
				bit = bits>>uint(j)&1 == 1
			} else {
				bit = hi>>uint(j-64)&1 == 1
			}
			assignA[v] = bit
			bv, _ := b.Names.Lookup(a.Names.Name(v))
			assignB[bv] = bit
		}
		if err := compareVector(a, b, [2]map[sop.Var]bool{assignA, assignB}); err != nil {
			return err
		}
	}
	return nil
}

// CheckSelf verifies that nw is equivalent to ref, where both share
// the same Names table — the common case of comparing a factored
// network against a pre-factorization clone.
//
//repolint:allow testonly -- e2ebench calls it; it is a separate module the loader does not see
func CheckSelf(ref, factored *network.Network, opt Options) error {
	return Check(ref, factored, opt)
}

func compatible(a, b *network.Network) error {
	if len(a.Inputs()) != len(b.Inputs()) {
		return fmt.Errorf("equiv: input counts differ: %d vs %d",
			len(a.Inputs()), len(b.Inputs()))
	}
	if len(a.Outputs()) != len(b.Outputs()) {
		return fmt.Errorf("equiv: output counts differ: %d vs %d",
			len(a.Outputs()), len(b.Outputs()))
	}
	for _, v := range a.Inputs() {
		if _, ok := b.Names.Lookup(a.Names.Name(v)); !ok {
			return fmt.Errorf("equiv: input %s missing in %s", a.Names.Name(v), b.Name)
		}
	}
	for i, v := range a.Outputs() {
		an := a.Names.Name(v)
		bn := b.Names.Name(b.Outputs()[i])
		if an != bn {
			return fmt.Errorf("equiv: output %d named %s vs %s", i, an, bn)
		}
	}
	return nil
}

func vector(a, b *network.Network, ins []sop.Var, bits uint64) [2]map[sop.Var]bool {
	assignA := map[sop.Var]bool{}
	assignB := map[sop.Var]bool{}
	for j, v := range ins {
		bit := bits>>uint(j)&1 == 1
		assignA[v] = bit
		bv, _ := b.Names.Lookup(a.Names.Name(v))
		assignB[bv] = bit
	}
	return [2]map[sop.Var]bool{assignA, assignB}
}

func compareVector(a, b *network.Network, assign [2]map[sop.Var]bool) error {
	oa, err := a.EvalOutputs(assign[0])
	if err != nil {
		return fmt.Errorf("equiv: evaluating %s: %w", a.Name, err)
	}
	ob, err := b.EvalOutputs(assign[1])
	if err != nil {
		return fmt.Errorf("equiv: evaluating %s: %w", b.Name, err)
	}
	for i := range oa {
		if oa[i] != ob[i] {
			return fmt.Errorf("equiv: output %s differs (%v vs %v) on %v",
				a.Names.Name(a.Outputs()[i]), oa[i], ob[i], describe(a, assign[0]))
		}
	}
	return nil
}

func describe(a *network.Network, assign map[sop.Var]bool) string {
	s := ""
	for _, v := range a.Inputs() {
		ch := "0"
		if assign[v] {
			ch = "1"
		}
		s += a.Names.Name(v) + "=" + ch + " "
	}
	return s
}
