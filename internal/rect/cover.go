package rect

import (
	"repro/internal/analysis/invariant"
	"repro/internal/bitset"
	"repro/internal/kcm"
)

// CubeSet is a set of function-cube ids, stored densely: builder cube
// ids are contiguous within each processor's label band, so a bitset
// keyed directly by id is compact (≈75 KB at six bands) and makes
// membership a single bit test. The L-shaped algorithm shares one
// CubeSet across all its L-matrices. Every mutation must bump version
// — the invalidation hook sibling Covers watch — which repolint's
// indexinvalidate analyzer enforces.
//
//repolint:invalidate version
type CubeSet struct {
	bits bitset.Set
	// version counts mutations, letting Covers on a shared set
	// detect marks that arrived through a sibling Cover.
	version uint64
}

// NewCubeSet returns an empty set sized for ids up to maxID.
func NewCubeSet(maxID int64) *CubeSet {
	return &CubeSet{bits: bitset.New(int(maxID) + 1)}
}

// Has reports whether id is in the set.
func (s *CubeSet) Has(id int64) bool {
	if id < 0 || int(id) >= s.bits.Cap() {
		return false
	}
	return s.bits.Test(int(id))
}

// Add inserts id, growing the set if needed. It reports whether the
// id was newly added.
func (s *CubeSet) Add(id int64) bool {
	if id < 0 {
		return false
	}
	if int(id) >= s.bits.Cap() {
		grown := bitset.New(int(id) + 1)
		copy(grown, s.bits)
		s.bits = grown
	}
	if s.bits.Test(int(id)) {
		return false
	}
	s.bits.Set(int(id))
	s.version++
	return true
}

// Count returns the number of ids in the set.
func (s *CubeSet) Count() int { return s.bits.Count() }

// Cover binds a covered-cube set to one matrix and is the searcher's
// fast path for the greedy cover loop: setting Config.Cover makes
// entry values bit tests on the set and keeps two caches that a Mark
// invalidates only where it can change them:
//
//   - each column's total claimable value over its full row set (the
//     root-level dominance prune), cleared for the columns that
//     contain the marked cube;
//   - the root memo (a Memo over the covered-set valuer), cleared for
//     the roots whose subtree can read the marked cube.
//
// The set may be shared by Covers of other matrices (NewCoverShared);
// marks arriving through a sibling flush both caches via the set's
// version counter.
type Cover struct {
	m   *kcm.Matrix
	set *CubeSet

	// Caches, lazily built against memo's index snapshot.
	version  uint64
	colVal   []int
	colFresh bitset.Set
	memo     Memo
}

// NewCover returns a Cover over a fresh empty set sized to m's cubes.
func NewCover(m *kcm.Matrix) *Cover {
	return &Cover{m: m, set: NewCubeSet(m.MaxCubeID())}
}

// NewCoverShared binds m to an existing (possibly shared) set.
func NewCoverShared(m *kcm.Matrix, set *CubeSet) *Cover {
	return &Cover{m: m, set: set}
}

// Set returns the underlying cube set.
func (c *Cover) Set() *CubeSet { return c.set }

// Has reports whether the cube id is covered.
func (c *Cover) Has(id int64) bool { return c.set.Has(id) }

// Mark covers the cube id, invalidating the root memo as
// Memo.Invalidate does and the column value of each entry carrying
// the cube.
func (c *Cover) Mark(id int64) {
	current := c.version == c.set.version
	if !c.set.Add(id) {
		return
	}
	if !current {
		// A sibling's marks are still unseen; leave the version
		// behind so the next sync flushes everything.
		return
	}
	c.memo.invalidate(id, c.colFresh)
	c.version = c.set.version
}

// Valuer returns the equivalent generic valuer: an entry is worth its
// weight unless its cube is covered. The reference searcher and
// non-fast-path callers use it.
func (c *Cover) Valuer() Valuer {
	return func(e kcm.Entry) int {
		if c.set.Has(e.CubeID) {
			return 0
		}
		return e.Weight
	}
}

// sync binds the caches to index snapshot ix. A new snapshot rebuilds
// them; marks that arrived through a sibling Cover, which Mark's
// fine-grained invalidation never saw, flush them.
func (c *Cover) sync(ix *kcm.Index) {
	if c.memo.ix != ix {
		c.memo.rebuild(ix)
		nc := len(ix.ColIDs)
		if cap(c.colVal) >= nc {
			c.colVal = c.colVal[:nc]
		} else {
			c.colVal = make([]int, nc)
		}
		c.colFresh = bitset.New(nc)
		c.version = c.set.version
	} else if c.version != c.set.version {
		c.colFresh.Reset()
		c.memo.fresh.Reset()
		c.version = c.set.version
	}
}

// colValue returns the total claimable value of dense column dc over
// its full row set, from cache when fresh.
func (c *Cover) colValue(ix *kcm.Index, dc int) int {
	c.sync(ix)
	if c.colFresh.Test(dc) {
		v := c.colVal[dc]
		if invariant.Enabled {
			invariant.Assert(v == c.recompute(ix, dc),
				"stale column-value cache: dense col %d cached %d, recomputed %d (missed Mark invalidation?)",
				dc, v, c.recompute(ix, dc))
		}
		return v
	}
	total := c.recompute(ix, dc)
	c.colVal[dc] = total
	c.colFresh.Set(dc)
	return total
}

// recompute sums dense column dc's claimable value over its full row
// set, ignoring the cache. It is the cache's ground truth: colValue
// fills from it, and the invariants build cross-checks every cache hit
// against it.
func (c *Cover) recompute(ix *kcm.Index, dc int) int {
	total := 0
	for _, r := range ix.Cols[dc].RowIDs {
		dr, _ := ix.RowPos(r)
		if k := ix.EntryAt(dr, dc); k >= 0 {
			e := ix.Rows[dr].Entries[k]
			if !c.set.Has(e.CubeID) {
				total += e.Weight
			}
		}
	}
	return total
}
