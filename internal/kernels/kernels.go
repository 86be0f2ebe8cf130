// Package kernels computes the kernels and co-kernels of SOP
// expressions: the cube-free primary divisors K(f) = {f/C cube-free}
// that algebraic factorization searches over (paper §2; Brayton &
// McMullen's recursive kerneling algorithm).
//
// The package is determinism-critical: kernel enumeration order feeds
// the offset labeling scheme, so iteration order must never depend on
// Go map order (DESIGN.md §7).
//
//repolint:determinism-critical
package kernels

import (
	"slices"

	"repro/internal/sop"
)

// Pair is one kernel together with the co-kernel cube that produced
// it: Kernel = f / CoKernel, and Kernel is cube-free.
type Pair struct {
	// Kernel is the cube-free quotient.
	Kernel sop.Expr
	// CoKernel is the cube C with Kernel = f/C. The unit cube marks
	// the trivial kernel (f itself, when f is cube-free).
	CoKernel sop.Cube
	// Depth is the recursion depth at which the kernel was found;
	// the function's own cube-free quotient has depth 0.
	Depth int
}

// Options tunes kernel generation.
type Options struct {
	// IncludeTrivial also emits the function's own cube-free
	// quotient with its common-cube co-kernel even when that
	// co-kernel is the unit cube. The paper's KC matrices
	// (Figure 2) omit the trivial kernel, so the default is false.
	IncludeTrivial bool
	// MaxDepth, when > 0, stops recursion below that depth,
	// generating only shallow kernels (a cheap approximation used
	// by SIS's leveled kernel extraction). 0 means unlimited.
	MaxDepth int
}

// All returns all (kernel, co-kernel) pairs of f under opts, in a
// deterministic order. Identical pairs reached along different
// recursion paths are deduplicated; the same kernel with different
// co-kernels yields one pair per co-kernel, since each is a separate
// row of the co-kernel cube matrix.
func All(f sop.Expr, opts Options) []Pair {
	var k Kerneler
	return k.All(f, opts, nil, nil, nil)
}

// Kerneler holds reusable scratch state (the sorted literal universe
// and the dedup hash table) so repeated kernel generation across many
// nodes does not re-allocate it. The zero value is ready to use; a
// Kerneler is not safe for concurrent use.
type Kerneler struct {
	lits    []sop.Lit
	seen    seenTable
	arena   *sop.Arena
	scratch *sop.Arena
	opts    Options
	out     []Pair
	base    int
	licube  [1]sop.Lit
	// match buffers the indices of the cubes containing the literal
	// under exploration, so quotient construction reuses the count scan.
	match []int32
}

// All appends all (kernel, co-kernel) pairs of f under opts to dst and
// returns the extended slice, in the same deterministic order as the
// package-level All. When arena is non-nil, every cube and cube slice
// of the produced pairs is drawn from it — the pairs stay valid only
// as long as the arena is not Reset (DESIGN.md §12). scratch, when
// non-nil, receives recursion intermediates that die with the call, so
// callers may Reset it between calls to recycle that storage; nil
// scratch falls back to arena.
func (k *Kerneler) All(f sop.Expr, opts Options, arena, scratch *sop.Arena, dst []Pair) []Pair {
	if f.NumCubes() < 2 {
		return dst
	}
	k.opts = opts
	k.arena = arena
	k.scratch = scratch
	if k.scratch == nil {
		k.scratch = arena
	}
	k.out = dst
	k.base = len(dst)
	k.lits = k.lits[:0]
	for _, c := range f.Cubes() {
		k.lits = append(k.lits, c...)
	}
	slices.Sort(k.lits)
	k.lits = slices.Compact(k.lits)
	k.seen.reset()
	cc := f.CommonCubeArena(arena)
	g := f.DivCommonArena(cc, arena)
	k.recurse(0, g, cc, 0)
	out := k.out
	k.out = nil
	k.arena = nil
	k.scratch = nil
	return out
}

func (k *Kerneler) add(kernel sop.Expr, ck sop.Cube, depth int) {
	if kernel.NumCubes() < 2 {
		return
	}
	if ck.IsUnit() && !k.opts.IncludeTrivial {
		return
	}
	h := hashPair(ck, kernel)
	if !k.seen.insert(h, k.out[k.base:], ck, kernel) {
		return
	}
	k.out = append(k.out, Pair{Kernel: kernel, CoKernel: ck, Depth: depth})
}

// recurse implements KERNEL1(j, g) with co-kernel accumulation: g is
// cube-free, ck is the cube divided out of the original function so
// far, and only literals with index >= j are explored (the classical
// duplicate-avoidance ordering).
func (k *Kerneler) recurse(j int, g sop.Expr, ck sop.Cube, depth int) {
	k.add(g, ck, depth)
	if k.opts.MaxDepth > 0 && depth >= k.opts.MaxDepth {
		return
	}
	for i := j; i < len(k.lits); i++ {
		li := k.lits[i]
		// One early-exit scan both counts the cubes containing li and
		// records them, so quotient construction allocates exactly the
		// surviving cubes without a second Contains pass.
		k.match = k.match[:0]
		for ci, c := range g.Cubes() {
			for _, x := range c {
				if x >= li {
					if x == li {
						k.match = append(k.match, int32(ci))
					}
					break
				}
			}
		}
		if len(k.match) < 2 {
			continue
		}
		k.licube[0] = li
		// fi, ci and step die with this iteration — scratch arena. The
		// quotient that escapes into emitted pairs (sub) is re-homed to
		// the keep arena below.
		fi := k.quotient(g, li)
		ci := fi.CommonCubeArena(k.scratch)
		// If the common cube of g/li contains a literal ordered
		// before li, this kernel was already generated from that
		// literal's branch.
		earlier := false
		for _, l := range ci {
			if k.litIndex(l) < i {
				earlier = true
				break
			}
		}
		if earlier {
			continue
		}
		// sub escapes into emitted pairs — keep arena. When ci is empty
		// fi is already cube-free and sub == fi, copied out of scratch.
		var sub sop.Expr
		if len(ci) == 0 {
			sub = fi.CloneArena(k.arena)
		} else {
			sub = fi.DivCommonArena(ci, k.arena)
		}
		step, ok := sop.Cube(k.licube[:]).UnionArena(ci, k.scratch)
		if !ok {
			continue // cannot happen for consistent cubes
		}
		nck, ok := ck.UnionArena(step, k.arena)
		if !ok {
			continue
		}
		k.recurse(i+1, sub, nck, depth+1)
	}
}

// quotient builds g/l from the cube indices recorded in k.match by the
// count scan: each matched cube minus the single literal l. Uses the
// scratch arena; falls back to the heap divide when no arena is set.
func (k *Kerneler) quotient(g sop.Expr, l sop.Lit) sop.Expr {
	if k.scratch == nil {
		k.licube[0] = l
		return g.DivCube(k.licube[:])
	}
	cs := k.scratch.Cubes(len(k.match))
	for _, ci := range k.match {
		cs = append(cs, k.scratch.CloneCubeWithout(g.Cube(int(ci)), l))
	}
	return sop.NewExprOwned(cs)
}

// litIndex returns the position of l in the sorted literal universe of
// the function being kerneled. Every literal reachable during the
// recursion comes from that universe, so the search always hits.
func (k *Kerneler) litIndex(l sop.Lit) int {
	i, _ := slices.BinarySearch(k.lits, l)
	return i
}

// seenTable is an open-addressing hash set deduplicating (co-kernel,
// kernel) pairs without materializing string keys: slots hold the FNV
// hash plus the index of the first pair with that hash, and exact
// structural comparison resolves collisions.
type seenTable struct {
	slots []seenSlot
	n     int
}

type seenSlot struct {
	hash uint64
	idx  int32 // index+1 into the current output slice; 0 = empty
}

func (t *seenTable) reset() {
	for i := range t.slots {
		t.slots[i] = seenSlot{}
	}
	t.n = 0
}

// insert records (ck, kernel) and reports true when the pair was not
// seen before. out must be the pairs emitted so far this run, so slot
// indices resolve to the pairs they were recorded for.
func (t *seenTable) insert(h uint64, out []Pair, ck sop.Cube, kernel sop.Expr) bool {
	if len(t.slots) == 0 {
		t.slots = make([]seenSlot, 64)
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for {
		s := t.slots[i]
		if s.idx == 0 {
			break
		}
		if s.hash == h {
			p := out[s.idx-1]
			if p.CoKernel.Equal(ck) && p.Kernel.Equal(kernel) {
				return false
			}
		}
		i = (i + 1) & mask
	}
	t.slots[i] = seenSlot{hash: h, idx: int32(len(out)) + 1}
	t.n++
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	return true
}

func (t *seenTable) grow() {
	old := t.slots
	t.slots = make([]seenSlot, len(old)*2)
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.idx == 0 {
			continue
		}
		i := s.hash & mask
		for t.slots[i].idx != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashLits folds the literals of one cube into h, terminated by a
// separator no literal can equal (literals are non-negative int32s).
func hashLits(h uint64, c sop.Cube) uint64 {
	for _, l := range c {
		h ^= uint64(uint32(l))
		h *= fnvPrime
	}
	h ^= 0xffffffff
	h *= fnvPrime
	return h
}

func hashPair(ck sop.Cube, kernel sop.Expr) uint64 {
	h := hashLits(fnvOffset, ck)
	for _, c := range kernel.Cubes() {
		h = hashLits(h, c)
	}
	return h
}

// HashCube returns the dedup hash of a single cube, shared with the
// kcm column interner so both layers agree on hashing.
func HashCube(c sop.Cube) uint64 {
	return hashLits(fnvOffset, c)
}
