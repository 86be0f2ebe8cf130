package sop

// This file implements the arena allocator the matrix-build hot path
// runs on. Kernel generation (internal/kernels) and KC-matrix assembly
// (internal/kcm) create millions of short cube and cube-slice values
// per build; allocating each from the Go heap dominated the build
// profile. An Arena hands out literal and cube storage from large
// chunks instead, and recycles whole chunks when its owner is
// invalidated (see DESIGN.md §12 for the ownership rules).
//
// Ownership rule: every Cube or Expr produced by an *Arena method
// aliases arena memory. It stays valid exactly as long as the arena is
// neither Reset nor Released — callers that publish such values (into
// a KC matrix, a kernel pair cache, ...) must keep the arena alive
// alongside them, and must treat the values as immutable.

// Chunk sizes start small (so an arena per tiny node stays cheap) and
// double up to a cap as the arena grows, so kernel-heavy nodes settle
// on a few large chunks.
const (
	arenaFirstLits  = 64
	arenaMaxLits    = 8192
	arenaFirstCubes = 16
	arenaMaxCubes   = 2048
)

// Arena is a chunked allocator for cube literals and cube slices.
// The zero value is ready to use. An Arena is not safe for concurrent
// use; parallel builders hold one arena per worker.
type Arena struct {
	lits  []Lit  // current literal chunk (len = used)
	cubes []Cube // current cube-slice chunk (len = used)

	fullLits  [][]Lit
	fullCubes [][]Cube

	freeLits  [][]Lit
	freeCubes [][]Cube

	nextLits  int
	nextCubes int

	reuseBytes int64
}

// grabLits makes room for n more literals and returns the insertion
// slice (len 0, cap >= n) without committing it; commitLits fixes the
// final length.
func (a *Arena) grabLits(n int) []Lit {
	if cap(a.lits)-len(a.lits) < n {
		if cap(a.lits) > 0 {
			a.fullLits = append(a.fullLits, a.lits)
		}
		if a.nextLits == 0 {
			a.nextLits = arenaFirstLits
		}
		size := a.nextLits
		if n > size {
			size = n
		}
		if a.nextLits < arenaMaxLits {
			a.nextLits *= 2
		}
		if k := len(a.freeLits); k > 0 && cap(a.freeLits[k-1]) >= n {
			a.lits = a.freeLits[k-1][:0]
			a.freeLits = a.freeLits[:k-1]
			a.reuseBytes += int64(cap(a.lits)) * 4
		} else {
			a.lits = make([]Lit, 0, size)
		}
	}
	return a.lits[len(a.lits):len(a.lits)]
}

// commitLits records that n literals of the last grabLits slice are
// now in use.
func (a *Arena) commitLits(n int) {
	a.lits = a.lits[:len(a.lits)+n]
}

// Cubes returns a zero-length cube slice with capacity n backed by the
// arena; append to it up to n entries without reallocating.
func (a *Arena) Cubes(n int) []Cube {
	if cap(a.cubes)-len(a.cubes) < n {
		if cap(a.cubes) > 0 {
			a.fullCubes = append(a.fullCubes, a.cubes)
		}
		if a.nextCubes == 0 {
			a.nextCubes = arenaFirstCubes
		}
		size := a.nextCubes
		if n > size {
			size = n
		}
		if a.nextCubes < arenaMaxCubes {
			a.nextCubes *= 2
		}
		if k := len(a.freeCubes); k > 0 && cap(a.freeCubes[k-1]) >= n {
			a.cubes = a.freeCubes[k-1][:0]
			a.freeCubes = a.freeCubes[:k-1]
			a.reuseBytes += int64(cap(a.cubes)) * 24
		} else {
			a.cubes = make([]Cube, 0, size)
		}
	}
	s := a.cubes[len(a.cubes) : len(a.cubes) : len(a.cubes)+n]
	a.cubes = a.cubes[:len(a.cubes)+n]
	return s
}

// CloneCube copies c into arena storage.
func (a *Arena) CloneCube(c Cube) Cube {
	buf := a.grabLits(len(c))
	buf = buf[:len(c)]
	copy(buf, c)
	a.commitLits(len(c))
	return buf
}

// Reset recycles every chunk for reuse while keeping them allocated;
// all values previously handed out become invalid.
func (a *Arena) Reset() {
	if cap(a.lits) > 0 {
		a.fullLits = append(a.fullLits, a.lits)
	}
	if cap(a.cubes) > 0 {
		a.fullCubes = append(a.fullCubes, a.cubes)
	}
	a.freeLits = append(a.freeLits, a.fullLits...)
	a.freeCubes = append(a.freeCubes, a.fullCubes...)
	a.fullLits, a.fullCubes = a.fullLits[:0], a.fullCubes[:0]
	a.lits, a.cubes = nil, nil
}

// ReusedBytes reports the total bytes served from recycled chunks
// instead of fresh heap allocations.
func (a *Arena) ReusedBytes() int64 { return a.reuseBytes }

// UnionArena is Union allocating the result from the arena. A nil
// arena falls back to the heap.
func (c Cube) UnionArena(d Cube, a *Arena) (Cube, bool) {
	if a == nil {
		return c.Union(d)
	}
	buf := a.grabLits(len(c) + len(d))
	out := buf[:0]
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
	a.commitLits(len(out))
	return out, true
}

// MinusArena is Minus allocating the result from the arena.
func (c Cube) MinusArena(d Cube, a *Arena) Cube {
	if a == nil {
		return c.Minus(d)
	}
	buf := a.grabLits(len(c))
	out := buf[:0]
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
	a.commitLits(len(out))
	return out
}

// CloneCubeWithout copies c into arena storage dropping the single
// literal l (which must be present in c).
func (a *Arena) CloneCubeWithout(c Cube, l Lit) Cube {
	buf := a.grabLits(len(c) - 1)
	out := buf[:0]
	for _, x := range c {
		if x != l {
			out = append(out, x)
		}
	}
	a.commitLits(len(out))
	return out
}

// CloneArena copies f's cubes into arena storage. f must already be
// canonical (it is an Expr), so no re-canonicalization is needed. A nil
// arena returns f unchanged: heap values need no re-homing.
func (f Expr) CloneArena(a *Arena) Expr {
	if a == nil {
		return f
	}
	cs := a.Cubes(len(f.cubes))
	for _, c := range f.cubes {
		cs = append(cs, a.CloneCube(c))
	}
	return Expr{cubes: cs}
}

// DivCommonArena divides f by a cube every cube of f contains — the
// common-cube case, where the quotient keeps all cubes and the
// Contains filter of DivCube is pure overhead.
func (f Expr) DivCommonArena(c Cube, a *Arena) Expr {
	if a == nil {
		return f.DivCube(c)
	}
	if c.IsUnit() {
		return f
	}
	cs := a.Cubes(len(f.cubes))
	for _, fc := range f.cubes {
		cs = append(cs, fc.MinusArena(c, a))
	}
	return NewExprOwned(cs)
}

// CommonCubeArena is CommonCube with the result drawn from the arena.
func (f Expr) CommonCubeArena(a *Arena) Cube {
	if a == nil {
		return f.CommonCube()
	}
	if len(f.cubes) == 0 {
		return Cube{}
	}
	common := a.CloneCube(f.cubes[0])
	for _, c := range f.cubes[1:] {
		common = intersectInto(common, c)
		if len(common) == 0 {
			break
		}
	}
	return common
}

// intersectInto intersects dst with c in place (dst's literal order is
// ascending, so the result is a subsequence of dst).
func intersectInto(dst, c Cube) Cube {
	out := dst[:0]
	j := 0
	for _, l := range dst {
		for j < len(c) && c[j] < l {
			j++
		}
		if j < len(c) && c[j] == l {
			out = append(out, l)
			j++
		}
	}
	return out
}

// NewExprOwned builds a canonical expression from cubes the caller
// owns and will not use again: the slice is canonicalized in place
// with no defensive copy (contrast NewExpr).
func NewExprOwned(cubes []Cube) Expr {
	return canon(cubes)
}
