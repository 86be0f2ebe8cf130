package rect

import (
	"repro/internal/bitset"
	"repro/internal/kcm"
)

// Cover is the state a memoized search keeps between searches: a set
// of cubes the search values at zero, and the root memo (see memo).
// Setting Config.Cover values an entry at zero when its cube is in the
// set, and otherwise by the Valuer argument of Best/BestK, or at its
// weight when that is nil.
//
// Marking a cube adds it to the set. Any other change to a cube's
// value, which only a non-nil Valuer can make, is delivered through
// Invalidate before the next search. The memo rebinds, empty, when the
// Cover is searched on another index snapshot, so one Cover can serve
// several matrices searched one after another, as lshape.ExtractCall's
// L-matrices are. Reset starts a Cover over for a new matrix in the
// storage it already has, as extract.Repeat does at each call and each
// core.LShaped worker slot at each of its calls. The zero Cover is
// empty, and Reset sizes it for a matrix.
//
// A Cover is not safe for concurrent use, and must not be marked or
// invalidated while a search through it runs.
//
//repolint:invalidate Invalidate
type Cover struct {
	// Quiet, when non-nil, reports whether every change to the
	// Valuer's values has been delivered through Invalidate. A Valuer
	// that reads state other goroutines write sets it: the invariants
	// build re-searches each replayed root live, and a mismatch
	// proves a missed Invalidate only while Quiet holds.
	Quiet func() bool

	set  bitset.Set
	memo memo
}

// NewCover returns a Cover with an empty set sized to m's cube ids.
func NewCover(m *kcm.Matrix) *Cover {
	return &Cover{set: bitset.New(int(m.MaxCubeID()) + 1)}
}

// Reset empties the Cover for searches of m, as NewCover(m) would
// return it, in the storage it already has: the set's words, sized to
// m's cube ids, and the memo's roots, freshness bits and cube index,
// which the next search refills. The set is cleared rather than kept,
// since a cube id of one matrix names another cube in the next. Quiet
// is left as it is.
//
//repolint:allow indexinvalidate -- Reset drops the whole memo, every view Invalidate could make stale, so it needs no per-cube invalidation
func (c *Cover) Reset(m *kcm.Matrix) {
	c.set = zeroed(c.set, bitset.Words(int(m.MaxCubeID())+1))
	c.memo.ix = nil // unbound, so the next search rebuilds it in place
}

// Has reports whether cube id is in the set.
func (c *Cover) Has(id int64) bool {
	if id < 0 || int(id) >= c.set.Cap() {
		return false
	}
	return c.set.Test(int(id))
}

// Mark adds cube id to the set, growing it if needed, and invalidates
// the memo entries the change can make stale.
func (c *Cover) Mark(id int64) {
	if id < 0 || c.Has(id) {
		return
	}
	if int(id) >= c.set.Cap() {
		grown := bitset.New(int(id) + 1)
		copy(grown, c.set)
		c.set = grown
	}
	c.set.Set(int(id))
	c.Invalidate(id)
}

// Invalidate drops the memo entries a change to cube id's value can
// make stale. For each matrix entry carrying the cube, at dense row r
// and position k, those are the roots RowRefs[r][:k+1]: exactly the
// roots c0 <= the entry's column whose row set contains r, the only
// subtrees whose rectangles, candidate values or dominance prunes read
// the entry.
func (c *Cover) Invalidate(id int64) { c.memo.invalidate(id) }

// Valuer returns the valuer of a search through the Cover with a nil
// Valuer argument: an entry is worth its weight unless its cube is in
// the set.
func (c *Cover) Valuer() Valuer {
	return func(e kcm.Entry) int {
		if c.Has(e.CubeID) {
			return 0
		}
		return e.Weight
	}
}
