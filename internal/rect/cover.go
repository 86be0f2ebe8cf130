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
//   - each root column's complete subtree result (the root memo: its
//     ranked candidates, visits and evals), cleared for the roots
//     whose subtree can read the marked cube (see Mark).
//
// The set may be shared by Covers of other matrices (NewCoverShared);
// marks arriving through a sibling flush both caches via the set's
// version counter.
type Cover struct {
	m   *kcm.Matrix
	set *CubeSet

	// Caches, lazily built against one Index snapshot.
	ix       *kcm.Index
	version  uint64
	colVal   []int
	colFresh bitset.Set
	memo     []rootMemo
	// memoFresh marks the roots whose memo entry is still exact;
	// memoKey is the search shape the entries were recorded under.
	memoFresh bitset.Set
	memoKey   [2]int
	// cubeOff/cubeRefs index every entry by cube id (CSR layout: the
	// entries carrying cube id are cubeRefs[cubeOff[id]:cubeOff[id+1]]).
	cubeOff  []int32
	cubeRefs []entryRef
}

// entryRef locates one matrix entry: Rows[row].Entries[k] of the
// index, whose dense column is RowRefs[row][k].
type entryRef struct{ row, k int32 }

// rootMemo is one root column's complete subtree result: its ranked
// candidates (at most cap of them, the list cap they were recorded
// with), and the visits and evals the enumeration took.
type rootMemo struct {
	cands         []Rect
	visits, evals int
	cap           int
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

// Mark covers the cube id. For each entry carrying the cube, at dense
// row r and position k, it invalidates the entry's column value and
// the root memo of RowRefs[r][:k+1]: exactly the roots c0 <= the
// entry's column whose row set contains r, the only subtrees whose
// rectangles, candidate values or dominance prunes read the entry.
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
	if c.ix != nil && int(id)+1 < len(c.cubeOff) {
		for _, ref := range c.cubeRefs[c.cubeOff[id]:c.cubeOff[id+1]] {
			refs := c.ix.RowRefs[ref.row][:ref.k+1]
			c.colFresh.Clear(int(refs[ref.k]))
			for _, dc := range refs {
				c.memoFresh.Clear(int(dc))
			}
		}
	}
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
	if c.ix != ix {
		c.rebuild(ix)
	} else if c.version != c.set.version {
		c.colFresh.Reset()
		c.memoFresh.Reset()
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

// beginSearch syncs the caches for a search of ix whose subtree shape
// is set by cfg's MaxCols and MinRows; memo entries recorded under a
// different shape are flushed.
func (c *Cover) beginSearch(ix *kcm.Index, cfg Config) {
	c.sync(ix)
	if key := [2]int{cfg.MaxCols, cfg.MinRows}; key != c.memoKey {
		c.memoFresh.Reset()
		c.memoKey = key
	}
}

// memoized returns root dc's memo entry when it is fresh and holds at
// least listCap candidates' worth of ranking, else nil.
func (c *Cover) memoized(dc, listCap int) *rootMemo {
	if !c.memoFresh.Test(dc) || c.memo[dc].cap < listCap {
		return nil
	}
	return &c.memo[dc]
}

// store records root dc's complete subtree result, copying cands to
// exact size, and marks the entry fresh.
func (c *Cover) store(dc int, cands []Rect, visits, evals, listCap int) {
	c.put(dc, cands, visits, evals, listCap)
	c.memoFresh.Set(dc)
}

// put writes root dc's complete subtree result into its memo slot
// without marking it fresh. Presearch workers call it concurrently,
// each only for the roots it took; the caller marks the entries fresh
// after they have all finished.
func (c *Cover) put(dc int, cands []Rect, visits, evals, listCap int) {
	e := &c.memo[dc]
	e.cands = nil
	if len(cands) > 0 {
		e.cands = make([]Rect, len(cands))
		copy(e.cands, cands)
	}
	e.visits, e.evals, e.cap = visits, evals, listCap
}

// rebuild re-targets the caches at a new index snapshot.
func (c *Cover) rebuild(ix *kcm.Index) {
	nc := len(ix.ColIDs)
	c.ix = ix
	if cap(c.colVal) >= nc {
		c.colVal = c.colVal[:nc]
	} else {
		c.colVal = make([]int, nc)
	}
	c.colFresh = bitset.New(nc)
	c.memo = make([]rootMemo, nc)
	c.memoFresh = bitset.New(nc)

	// Count entries per cube id, prefix-sum into starts, fill while
	// advancing each start to its end, then shift the ends back into
	// starts.
	off := make([]int32, ix.MaxCubeID+2)
	n := 0
	for _, row := range ix.Rows {
		for _, e := range row.Entries {
			off[e.CubeID+1]++
		}
		n += len(row.Entries)
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	refs := make([]entryRef, n)
	for r, row := range ix.Rows {
		for k, e := range row.Entries {
			refs[off[e.CubeID]] = entryRef{int32(r), int32(k)}
			off[e.CubeID]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	c.cubeOff, c.cubeRefs = off, refs
	c.version = c.set.version
}
