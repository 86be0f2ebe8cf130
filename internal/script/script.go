// Package script drives a multi-pass synthesis flow in the style of
// the SIS scripts the paper's Table 1 profiles: repeated passes of
// sweep, SOP simplification, cube extraction, kernel extraction and
// node elimination, until a pass stops improving the literal count.
// The driver times each phase so the Table 1 experiment can report
// how much of total synthesis is spent inside algebraic factorization
// (the paper measures 61.45% on average).
package script

import (
	"context"
	"time"

	"repro/internal/extract"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

// Options configures the flow.
type Options struct {
	// Kernel, Rect and BatchK configure kernel extraction, as in
	// extract.Options; Rect and BatchK bound cube extraction's
	// searches too.
	Kernel kernels.Options
	Rect   rect.Config
	BatchK int
	// MaxPasses caps script passes (default 8).
	MaxPasses int
}

// PhaseTiming records one phase execution.
type PhaseTiming struct {
	// Name is the phase ("sweep", "simplify", "cube", "gkx",
	// "eliminate").
	Name string
	// Wall is the measured wall-clock time of the phase.
	Wall time.Duration
	// Work is the phase's abstract work measure.
	Work int64
}

// Result summarizes a script run — the row shape of Table 1.
type Result struct {
	// InitialLC and FinalLC bracket the run.
	InitialLC, FinalLC int
	// FacInvocations counts kernel-extraction calls ("Factorization
	// Invoked" of Table 1).
	FacInvocations int
	// FacWall and TotalWall time factorization vs everything.
	FacWall, TotalWall time.Duration
	// FacWork and TotalWork are the same in abstract work units
	// (deterministic across hosts).
	FacWork, TotalWork int64
	// Passes is the number of script passes executed.
	Passes int
	// Phases lists every phase execution in order.
	Phases []PhaseTiming
}

// Run executes the synthesis flow on nw in place.
func Run(nw *network.Network, opt Options) Result {
	if opt.MaxPasses == 0 {
		opt.MaxPasses = 8
	}
	res := Result{InitialLC: nw.Literals()}
	start := time.Now()

	phase := func(name string, f func() int64) {
		t0 := time.Now()
		work := f()
		pt := PhaseTiming{Name: name, Wall: time.Since(t0), Work: work}
		res.Phases = append(res.Phases, pt)
		res.TotalWork += work
		if name == "gkx" {
			res.FacWall += pt.Wall
			res.FacWork += work
			res.FacInvocations++
		}
	}

	xopt := extract.Options{Kernel: opt.Kernel, Rect: opt.Rect, BatchK: opt.BatchK}
	gkx := func() int64 {
		r := extract.KernelExtract(context.Background(), nw, nil, xopt)
		return int64(r.Work.Total())
	}
	for pass := 0; pass < opt.MaxPasses; pass++ {
		res.Passes++
		before := nw.Literals()

		phase("sweep", func() int64 { return int64(Sweep(nw)) })
		phase("simplify", func() int64 { return int64(Simplify(nw)) })
		phase("gkx", gkx)
		phase("cube", func() int64 {
			r := extract.CubeExtract(nw, nil, 4, xopt)
			return int64(r.Work.Total())
		})
		phase("gkx", gkx)
		phase("eliminate", func() int64 { return int64(Eliminate(nw)) })

		if nw.Literals() >= before {
			break
		}
	}

	res.FinalLC = nw.Literals()
	res.TotalWall = time.Since(start)
	return res
}

// Sweep removes nodes unreachable from any primary output and inlines
// buffer nodes (single positive literal functions). It returns a work
// measure (nodes visited).
func Sweep(nw *network.Network) int {
	work := 0
	// Inline buffers: y = x (single positive literal) rewires y's
	// readers to x.
	fo := nw.Fanouts()
	for _, v := range nw.NodeVars() {
		nd := nw.Node(v)
		if nd == nil {
			continue
		}
		work++
		fn := nd.Fn
		if fn.NumCubes() != 1 || len(fn.Cube(0)) != 1 || fn.Cube(0)[0].IsNeg() {
			continue
		}
		if isOutput(nw, v) {
			continue
		}
		src := fn.Cube(0)[0].Var()
		for _, u := range fo[v] {
			und := nw.Node(u)
			if und == nil {
				continue
			}
			und.Fn = substVar(und.Fn, v, src)
			// The reader now reads src instead of v.
			fo[src] = append(fo[src], u)
		}
		nw.RemoveNode(v)
	}
	// Drop dead nodes: not an output, no fanout.
	for changed := true; changed; {
		changed = false
		fo := nw.Fanouts()
		for _, v := range nw.NodeVars() {
			work++
			if isOutput(nw, v) || len(fo[v]) > 0 {
				continue
			}
			nw.RemoveNode(v)
			changed = true
		}
	}
	return work
}

// Simplify removes absorbed cubes from every node: a cube whose
// literal set contains another cube of the same function is redundant
// (the smaller product covers it). Returns cubes inspected.
func Simplify(nw *network.Network) int {
	work := 0
	for _, v := range nw.NodeVars() {
		fn := nw.Node(v).Fn
		cubes := fn.Cubes()
		var keep []sop.Cube
		for i, c := range cubes {
			work++
			absorbed := false
			for j, d := range cubes {
				if i == j {
					continue
				}
				// d ⊂ c (proper) absorbs c; equal cubes were
				// already merged by canonicalization.
				if len(d) < len(c) && c.Contains(d) {
					absorbed = true
					break
				}
			}
			if !absorbed {
				keep = append(keep, c)
			}
		}
		if len(keep) != len(cubes) {
			nw.SetFn(v, sop.NewExpr(keep...))
		}
	}
	return work
}

// Eliminate inlines internal nodes with exactly one reader when doing
// so does not increase the literal count (SIS's eliminate with a zero
// value threshold). Returns nodes considered.
func Eliminate(nw *network.Network) int {
	work := 0
	fanouts := nw.Fanouts()
	for _, v := range nw.NodeVars() {
		work++
		nd := nw.Node(v)
		if nd == nil || isOutput(nw, v) {
			continue
		}
		fo := fanouts[v]
		if len(fo) != 1 {
			continue
		}
		u := fo[0]
		if nw.Node(u) == nil {
			continue
		}
		und := nw.Node(u)
		collapsed, ok := collapse(und.Fn, v, nd.Fn)
		if !ok {
			continue
		}
		if collapsed.Literals() > und.Fn.Literals()+nd.Fn.Literals() {
			continue
		}
		nw.SetFn(u, collapsed)
		nw.RemoveNode(v)
		fanouts = nw.Fanouts() // u's fanins changed; refresh
	}
	return work
}

// collapse substitutes node v's function g into f wherever the
// positive literal of v appears. Cubes using the complemented literal
// block the collapse (algebraic flows avoid complementing).
func collapse(f sop.Expr, v sop.Var, g sop.Expr) (sop.Expr, bool) {
	out := sop.Zero()
	for _, c := range f.Cubes() {
		switch {
		case c.Has(sop.Neg(v)):
			return sop.Expr{}, false
		case c.Has(sop.Pos(v)):
			rest := c.Minus(sop.Cube{sop.Pos(v)})
			out = out.Add(g.MulCube(rest))
		default:
			out = out.AddCube(c)
		}
	}
	return out, true
}

func isOutput(nw *network.Network, v sop.Var) bool {
	for _, o := range nw.Outputs() {
		if o == v {
			return true
		}
	}
	return false
}

func substVar(f sop.Expr, from, to sop.Var) sop.Expr {
	cubes := make([]sop.Cube, 0, f.NumCubes())
	for _, c := range f.Cubes() {
		lits := make([]sop.Lit, 0, len(c))
		for _, l := range c {
			if l.Var() == from {
				lits = append(lits, sop.MkLit(to, l.IsNeg()))
			} else {
				lits = append(lits, l)
			}
		}
		if nc, ok := sop.NewCube(lits...); ok {
			cubes = append(cubes, nc)
		}
	}
	return sop.NewExpr(cubes...)
}
