package rect

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/kcm"
)

// memo memoizes each root column's complete subtree result across
// searches of one matrix through a Cover: its ranked candidates, and
// the visits and evals the enumeration took. A search replays a root's
// entry while it is fresh, adding its visits and evals as if searched,
// so Stats stay the logical count of a full enumeration; it searches
// the other roots live and records them.
//
// An entry depends on the values of the matrix entries its subtree can
// read, and a value may depend only on the entry. Every change to a
// cube's value reaches invalidate before the next search (Cover.Mark,
// Cover.Invalidate). A new index snapshot of the matrix, or a search
// with another MaxCols, drops every entry.
type memo struct {
	ix    *kcm.Index
	roots []rootMemo
	// fresh marks the roots whose entry is still exact; maxCols is the
	// search depth the entries were recorded under.
	fresh   bitset.Set
	maxCols int
	cubes   cubeIndex
}

// rootMemo is one root column's complete subtree result: its ranked
// candidates (at most cap of them, the list cap they were recorded
// with), and the visits and evals the enumeration took.
type rootMemo struct {
	cands         []Rect
	visits, evals int
	cap           int
}

// invalidate drops the entries a change to cube id's value can make
// stale (see Cover.Invalidate).
func (mm *memo) invalidate(id int64) {
	if mm.ix == nil {
		return
	}
	for _, ref := range mm.cubes.entries(id) {
		for _, dc := range mm.ix.RowRefs[ref.row][:ref.k+1] {
			mm.fresh.Clear(int(dc))
		}
	}
}

// beginSearch binds the memo to index snapshot ix for a search whose
// subtree shape is set by cfg's MaxCols; entries recorded against
// another snapshot or depth are dropped.
func (mm *memo) beginSearch(ix *kcm.Index, cfg Config) {
	if mm.ix != ix {
		mm.rebuild(ix)
	}
	if cfg.MaxCols != mm.maxCols {
		mm.fresh.Reset()
		mm.maxCols = cfg.MaxCols
	}
}

// memoized returns root dc's entry when it is fresh and holds at least
// listCap candidates' worth of ranking, else nil.
func (mm *memo) memoized(dc, listCap int) *rootMemo {
	if !mm.fresh.Test(dc) || mm.roots[dc].cap < listCap {
		return nil
	}
	return &mm.roots[dc]
}

// store records root dc's complete subtree result, copying cands to
// exact size, and marks the entry fresh.
func (mm *memo) store(dc int, cands []Rect, visits, evals, listCap int) {
	mm.put(dc, cands, visits, evals, listCap)
	mm.fresh.Set(dc)
}

// put writes root dc's complete subtree result into its slot without
// marking it fresh. Presearch workers call it concurrently, each only
// for the roots it took; the caller marks the entries fresh after they
// have all finished.
func (mm *memo) put(dc int, cands []Rect, visits, evals, listCap int) {
	e := &mm.roots[dc]
	e.cands = nil
	if len(cands) > 0 {
		e.cands = make([]Rect, len(cands))
		copy(e.cands, cands)
	}
	e.visits, e.evals, e.cap = visits, evals, listCap
}

// rebuild re-targets the memo at a new index snapshot, empty, reusing
// the arrays of the last one. Entries are cleared, but their
// candidates are not recycled: search results share them.
func (mm *memo) rebuild(ix *kcm.Index) {
	nc := len(ix.ColIDs)
	mm.ix = ix
	mm.roots = zeroed(mm.roots, nc)
	mm.fresh = zeroed(mm.fresh, bitset.Words(nc))
	mm.cubes.build(ix)
}

// zeroed returns s with length n and every element zero, reusing its
// array when it holds n elements. Every slice it returns is zero past
// its length too, so the old elements it clears are the only ones a
// later call must clear.
func zeroed[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	clear(s)
	return s[:n]
}

// entryRef locates one matrix entry: Rows[row].Entries[k] of the
// index, whose dense column is RowRefs[row][k].
type entryRef struct{ row, k int32 }

// cubeIndex lists the entries carrying each cube id in CSR layout: the
// entries of the id in slot i are refs[off[i]:off[i+1]]. Builder cube
// ids are contiguous within each processor's label band (§5.2:
// processor p's start at p·kcm.Stride+1), so each band present gets
// one slot per id from its smallest id to its largest, and an L-matrix,
// whose ids sit in several bands above band 0, pays for the ids it
// holds rather than for every id below its largest.
type cubeIndex struct {
	bands []idBand // indexed by id / kcm.Stride
	off   []int32
	refs  []entryRef
	// hi is build's scratch: each band's largest id.
	hi []int64
}

// idBand maps one label band's ids lo .. lo+n-1 to slots base ..
// base+n-1; a band with no ids has n == 0.
type idBand struct {
	lo      int64
	base, n int32
}

// slot returns the slot of cube id, if the index has one.
func (x *cubeIndex) slot(id int64) (int, bool) {
	b := id / kcm.Stride
	if id < 0 || b >= int64(len(x.bands)) {
		return 0, false
	}
	band := &x.bands[b]
	i := id - band.lo
	if i < 0 || i >= int64(band.n) {
		return 0, false
	}
	return int(band.base) + int(i), true
}

// entries returns the entries carrying cube id.
func (x *cubeIndex) entries(id int64) []entryRef {
	i, ok := x.slot(id)
	if !ok {
		return nil
	}
	return x.refs[x.off[i]:x.off[i+1]]
}

// build indexes ix's entries by cube id, in the arrays of the last
// build: one pass finds each band's id range, then a counting sort over
// the slots (count entries per slot, prefix-sum into starts, fill while
// advancing each start to its end, then shift the ends back into
// starts).
func (x *cubeIndex) build(ix *kcm.Index) {
	nb := int(ix.MaxCubeID/kcm.Stride) + 1
	x.bands = zeroed(x.bands, nb)
	x.hi = zeroed(x.hi, nb)
	bands, hi := x.bands, x.hi
	for b := range bands {
		bands[b].lo = math.MaxInt64
	}
	n := 0
	for _, row := range ix.Rows {
		for _, e := range row.Entries {
			b := e.CubeID / kcm.Stride
			bands[b].lo = min(bands[b].lo, e.CubeID)
			hi[b] = max(hi[b], e.CubeID)
		}
		n += len(row.Entries)
	}
	slots := 0
	for b := range bands {
		if hi[b] < bands[b].lo {
			bands[b] = idBand{}
			continue
		}
		bands[b].base = int32(slots)
		bands[b].n = int32(hi[b] - bands[b].lo + 1)
		slots += int(bands[b].n)
	}
	x.off = zeroed(x.off, slots+1)
	off := x.off
	for _, row := range ix.Rows {
		for _, e := range row.Entries {
			i, _ := x.slot(e.CubeID)
			off[i+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	x.refs = zeroed(x.refs, n)
	refs := x.refs
	for r, row := range ix.Rows {
		for k, e := range row.Entries {
			i, _ := x.slot(e.CubeID)
			refs[off[i]] = entryRef{int32(r), int32(k)}
			off[i]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
}
