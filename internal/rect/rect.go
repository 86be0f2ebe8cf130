// Package rect implements the rectangle machinery of the
// minimum-weighted rectangle covering formulation [Brayton et al.,
// ICCAD 1987] that kernel extraction reduces to (paper §2): a
// rectangle (R,C) of the KC matrix selects a kernel (the sum of the
// column cubes) and the rows whose nodes profit from extracting it.
//
// The search enumerates the tree of Figure 1: a depth-first traversal
// over column sets in increasing label order, so that restricting the
// root (leftmost) column partitions the whole search space across
// processors — exactly the paper's divide-and-conquer decomposition.
//
// The searcher runs on the dense index of internal/kcm: the row
// subset at each node is a bitset holding the rows of the node's last
// column's row list that its parent holds, candidate extensions are
// found by scanning the surviving rows' dense entry references, and
// all per-visit scratch comes from a pooled arena, so a search visit
// allocates nothing. Dense column order equals label order, which
// keeps the enumeration — and therefore every tie-break and the §3
// leftmost-column decomposition — bit-for-bit identical to the
// retained reference implementation (see reference_test.go).
//
// A node whose row set is a single row can never yield a rectangle,
// since a kernel must be used at least twice, so the searcher counts
// such a node's subtree in closed form instead of expanding it
// (countSubtree); Stats stay the counts of a full enumeration.
//
// The package is determinism-critical: enumeration order is the
// contract (DESIGN.md §7), so map iteration order must never leak
// into results.
//
//repolint:determinism-critical
package rect

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/analysis/invariant"
	"repro/internal/bitset"
	"repro/internal/kcm"
)

// Rect is a rectangle of the KC matrix together with its evaluated
// gain (net literal savings if extracted). Rectangles returned by a
// search through a Cover may share their slices with the Cover's root
// memo, so callers treat them as read-only.
type Rect struct {
	// Rows are the participating row ids (each row's node profits).
	Rows []int64
	// Cols are the column ids; the extracted kernel is the sum of
	// their cubes.
	Cols []int64
	// Gain is the estimated literal savings: covered cube literals
	// minus the rewritten rows' new cubes minus the new node.
	Gain int
}

// Valuer returns the literal value a searching processor may claim
// for the function cube behind an entry. A nil Valuer values every
// entry at its weight. A search through a Cover values the cubes in
// its set at zero and asks the Valuer about the rest: the sequential
// algorithm passes nil, and the L-shaped algorithm a Valuer that
// consults the cube state machine (§5.3).
type Valuer func(e kcm.Entry) int

// WeightValuer values every cube at its literal count (nothing
// covered yet).
func WeightValuer(e kcm.Entry) int { return e.Weight }

// Config bounds the branch-and-bound enumeration.
type Config struct {
	// MaxCols caps the number of columns per rectangle (search
	// depth). 0 means the package default (8).
	MaxCols int
	// MaxVisits caps the number of search-tree nodes expanded. 0
	// means the package default (1 << 20). The cap keeps worst-case
	// inputs tractable; the searcher reports whether it was hit.
	MaxVisits int
	// LeftmostCols restricts root columns to this set — the §3
	// decomposition. nil means all columns.
	LeftmostCols []int64
	// OnBest, when non-nil, fires every time the incumbent best
	// rectangle is replaced during the search: within a root's
	// subtree when the root is searched live, and with the root's
	// best candidate when a memoized root is replayed. The L-shaped
	// algorithm uses it to speculatively cover the incumbent's
	// cubes in the shared state table (§5.3).
	OnBest func(prev, next Rect)
	// Cover, when non-nil, memoizes each root column's subtree
	// result across searches (see Cover): an entry whose cube is in
	// the Cover's set is worth zero, one bit test, and any other is
	// valued by the Valuer argument of Best/BestK, or at its weight
	// when that is nil. Without OnBest, a search through a Cover
	// searches the roots it has no fresh memo entry for on up to
	// GOMAXPROCS goroutines, which call the Valuer concurrently; the
	// Cover must not be marked or invalidated while a search runs.
	Cover *Cover
}

const (
	defaultMaxCols   = 8
	defaultMaxVisits = 1 << 20
	// minRows is the minimum number of participating rows: kernel
	// extraction looks for *common* subexpressions, so a kernel must
	// be used at least twice. countSubtree rests on it.
	minRows = 2
)

// Stats reports search effort, consumed by the virtual-time model.
type Stats struct {
	// Visits is the number of search-tree nodes a full enumeration
	// expands. It is a logical count: most of it is counted, not
	// expanded — the subtrees of single-row nodes in closed form, and
	// memoized roots by replay.
	Visits int
	// Evals is the number of rectangles whose gain was computed.
	Evals int
	// Truncated reports whether MaxVisits stopped the search early.
	Truncated bool
}

// Best returns the maximum-gain rectangle of m under val (and
// cfg.Cover), or a zero-gain Rect with nil Rows when no rectangle has
// positive gain.
// Ties break deterministically (smallest column list, then smallest
// row list), so any partition of root columns across workers
// recombines to the same winner the sequential search finds.
func Best(m *kcm.Matrix, cfg Config, val Valuer) (Rect, Stats) {
	s := newSearcher(m, cfg, val)
	s.run(cfg.LeftmostCols)
	best, stats := s.best, s.stats
	s.release()
	return best, stats
}

func withDefaults(cfg Config) Config {
	if cfg.MaxCols == 0 {
		cfg.MaxCols = defaultMaxCols
	}
	if cfg.MaxVisits == 0 {
		cfg.MaxVisits = defaultMaxVisits
	}
	return cfg
}

// searcher is the dense branch-and-bound enumerator. All per-depth
// state lives in a pooled scratch arena; nothing is allocated per
// visit.
type searcher struct {
	m     *kcm.Matrix
	ix    *kcm.Index
	cfg   Config
	val   Valuer
	cover *Cover
	best  Rect
	stats Stats
	// top collects ranked candidates when BestK batching is in
	// effect (topCap > 0).
	top    []Rect
	topCap int
	// local ranks the candidates of the root column being searched,
	// capped at listCap: the unit the Cover's root memo stores.
	local []Rect
	sc    *scratch
	// live counts the nodes expanded one by one, the rest of
	// stats.Visits having been counted or replayed; only the package
	// tests read it.
	live int
}

// newSearcher clamps MaxCols to the longest row, the deepest a node can
// be, so the scratch arena, sized per level, is bounded by the matrix.
func newSearcher(m *kcm.Matrix, cfg Config, val Valuer) *searcher {
	s := &searcher{m: m, cfg: withDefaults(cfg), val: val, cover: cfg.Cover}
	s.ix = m.Index()
	s.cfg.MaxCols = min(s.cfg.MaxCols, s.ix.MaxRowLen)
	s.sc = getScratch(len(s.ix.RowIDs), len(s.ix.ColIDs), int(s.ix.MaxCubeID)+1, s.cfg.MaxCols)
	s.top, s.local = s.sc.top, s.sc.local
	return s
}

// release returns the scratch arena, with the ranking buffers, to the
// pool. The searcher must not be used afterwards.
func (s *searcher) release() {
	s.sc.top, s.sc.local = s.top[:0], s.local[:0]
	putScratch(s.sc)
	s.sc = nil
}

// value is the claimable value of one entry: zero when its cube is in
// the Cover's set, else the Valuer's value, or the weight when the
// Valuer is nil.
func (s *searcher) value(e kcm.Entry) int {
	if s.cover != nil && s.cover.Has(e.CubeID) {
		return 0
	}
	if s.val == nil {
		return e.Weight
	}
	return s.val(e)
}

// listCap is the length of the per-root ranked candidate list: the
// BestK harvest size, or 1 (the root's best) for Best.
func (s *searcher) listCap() int { return max(s.topCap, 1) }

// run enumerates the search tree from every permitted root column.
//
// With a Cover, each root's complete subtree result is recorded and
// replayed while no invalidation has touched it (see memo): its visits
// and evals are added as if searched, so Stats stays the logical count
// of a full enumeration, and its candidates merge into the ranking.
// The root where the visit budget runs out is always searched live, so
// Truncated and the partial candidate set are those of a full
// enumeration too. In a Cover search with no OnBest observer, roots
// with no fresh memo entry are first searched concurrently by
// presearch; the loop below then replays them like any other entry.
func (s *searcher) run(leftmost []int64) {
	roots := s.roots(leftmost)
	if s.cover != nil {
		s.cover.memo.beginSearch(s.ix, s.cfg)
		if s.cfg.OnBest == nil {
			s.presearch(roots)
		}
	}
	for _, dc := range roots {
		if len(s.ix.ColRows[dc]) == 0 {
			continue
		}
		if s.cover != nil {
			if e := s.cover.memo.memoized(dc, s.listCap()); e != nil && e.visits <= s.cfg.MaxVisits-s.stats.Visits {
				s.replay(dc, e)
				continue
			}
		}
		visits, evals := s.stats.Visits, s.stats.Evals
		s.searchRoot(dc)
		s.merge(s.local)
		if s.stats.Truncated {
			break
		}
		if s.cover != nil {
			s.cover.memo.store(dc, s.local, s.stats.Visits-visits, s.stats.Evals-evals, s.listCap())
		}
	}
}

// roots returns the dense positions of the permitted root columns in
// ascending order, which is label order. With no leftmost set, that is
// every position; otherwise each listed label that names a column.
func (s *searcher) roots(leftmost []int64) []int {
	roots := s.sc.roots[:0]
	if leftmost == nil {
		for dc := range s.ix.ColIDs {
			roots = append(roots, dc)
		}
	} else {
		for _, c0 := range leftmost {
			if dc, ok := s.ix.ColPos(c0); ok {
				roots = append(roots, dc)
			}
		}
		slices.Sort(roots)
	}
	s.sc.roots = roots
	return roots
}

// searchRoot enumerates the subtree of dense root column dc live,
// leaving its ranked candidates in s.local.
func (s *searcher) searchRoot(dc int) {
	s.local = s.local[:0]
	if s.rootValue(dc) == 0 {
		// Dominance prune: a rectangle containing a column whose
		// entries are all worth zero in its row set is dominated by
		// the same rectangle without that column (more rows, same
		// value, cheaper kernel), so no best rectangle starts here.
		return
	}
	s.enumerate(dc)
}

// enumerate searches the subtree of dense root column dc, whose root
// value is non-zero, adding its ranked candidates to s.local.
func (s *searcher) enumerate(dc int) {
	rows := s.ix.ColRows[dc]
	if len(rows) == 1 && s.countSubtree(int(rows[0]), dc, 1) {
		return
	}
	sc := s.sc
	sc.rows[0].Reset()
	for _, r := range rows {
		sc.rows[0].Set(int(r))
	}
	sc.cols[0] = s.ix.ColIDs[dc]
	sc.dcols[0] = dc
	sc.kcost[0] = s.ix.Cols[dc].Cube.Weight()
	s.recurse(1)
}

// merge folds one root's ranked candidates into the BestK ranking.
// The list is ranked, so the first candidate a full ranking rejects
// ends the merge.
func (s *searcher) merge(cands []Rect) {
	if s.topCap == 0 {
		return
	}
	for _, r := range cands {
		var ok bool
		if s.top, ok = insertRanked(s.top, r, s.topCap); !ok {
			return
		}
	}
}

// replay adds memoized root dc's subtree result as if it had been
// searched. The root's best candidate is offered as the incumbent, so
// OnBest sees the root's winner, though not the incumbents a live
// search passes through on the way to it.
func (s *searcher) replay(dc int, e *rootMemo) {
	cands := e.cands[:min(len(e.cands), s.listCap())]
	if invariant.Enabled {
		s.checkReplay(dc, e, cands)
	}
	s.stats.Visits += e.visits
	s.stats.Evals += e.evals
	s.merge(cands)
	if len(cands) > 0 {
		s.offer(cands[0])
	}
}

// checkReplay re-searches root dc live on a private searcher and
// asserts the memo entry matches it: the invariants build's proof of
// the invalidation rule. The re-search reports to no OnBest observer,
// so it publishes no speculation, and when the Valuer reads shared
// state (Cover.Quiet is set), a mismatch counts only if every change
// has been delivered both before and after the re-search.
func (s *searcher) checkReplay(dc int, e *rootMemo, cands []Rect) {
	quiet := s.cover.Quiet
	if quiet != nil && !quiet() {
		return
	}
	cfg := s.cfg
	cfg.OnBest = nil
	live := newSearcher(s.m, cfg, s.val)
	live.topCap = s.topCap
	live.searchRoot(dc)
	same := live.stats.Visits == e.visits && live.stats.Evals == e.evals && len(live.local) == len(cands)
	for i := 0; same && i < len(cands); i++ {
		same = CompareRects(live.local[i], cands[i]) == 0
	}
	invariant.Assert(same || (quiet != nil && !quiet()),
		"stale root memo: dense root %d replayed %d visits, %d evals, %d candidates; live search %d, %d, %d (missed invalidation?)",
		dc, e.visits, e.evals, len(cands), live.stats.Visits, live.stats.Evals, len(live.local))
	live.release()
}

// rootValue sums the claimable values of a column's entries over its
// full row set.
func (s *searcher) rootValue(dc int) int {
	total := 0
	for _, r := range s.ix.ColRows[dc] {
		if k := s.ix.EntryAt(int(r), dc); k >= 0 {
			total += s.value(s.ix.Rows[r].Entries[k])
		}
	}
	return total
}

// recurse expands the search-tree node whose chosen columns are
// sc.cols[:depth] and whose row subset is sc.rows[depth-1].
func (s *searcher) recurse(depth int) {
	s.live++
	s.stats.Visits++
	if s.stats.Visits > s.cfg.MaxVisits {
		s.stats.Truncated = true
		return
	}
	if depth >= 2 {
		s.evaluate(depth)
	}
	if depth >= s.cfg.MaxCols {
		return
	}
	sc := s.sc
	ix := s.ix
	rows := sc.rows[depth-1]
	lastD := int32(sc.dcols[depth-1])
	cand := sc.cand[depth]
	cand.Reset()
	cvals := sc.cvals[depth]
	only := sc.only[depth]
	// Candidate extensions: columns beyond last present in >= 1 of
	// the current rows, carrying non-zero claimable value (the
	// zero-value dominance prune — see run). One pass over the
	// surviving rows' dense entry references replaces the per-visit
	// candidate map of the reference implementation; it also notes
	// each candidate's only row, or -1 when several rows hit it.
	for wi, w := range rows {
		for w != 0 {
			r := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			refs := ix.RowRefs[r]
			entries := ix.Rows[r].Entries
			// Skip entries at or left of the last chosen column.
			lo, hi := 0, len(refs)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if refs[mid] <= lastD {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			for k := lo; k < len(refs); k++ {
				dc := int(refs[k])
				v := s.value(entries[k])
				if !cand.Test(dc) {
					cand.Set(dc)
					cvals[dc] = v
					only[dc] = int32(r)
				} else {
					cvals[dc] += v
					only[dc] = -1
				}
			}
		}
	}
	// Walk candidates in increasing label order (== dense order) for
	// determinism. The row subset for an extension holds the rows of
	// its column's list that this node holds, unless its only row
	// makes it a subtree to count.
	for wi, w := range cand {
		for w != 0 {
			dc := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if cvals[dc] <= 0 {
				continue
			}
			if r := only[dc]; r >= 0 && s.countSubtree(int(r), dc, depth+1) {
				continue
			}
			sub := sc.rows[depth]
			sub.Reset()
			for _, r := range ix.ColRows[dc] {
				if rows.Test(int(r)) {
					sub.Set(int(r))
				}
			}
			sc.cols[depth] = ix.ColIDs[dc]
			sc.dcols[depth] = dc
			sc.kcost[depth] = sc.kcost[depth-1] + ix.Cols[dc].Cube.Weight()
			s.recurse(depth + 1)
			if s.stats.Truncated {
				return
			}
		}
	}
}

// countSubtree adds the Stats of the subtree of the node at depth
// whose only row is dense row r and whose last column is dense column
// dc, without expanding it, and reports whether it did. With one row
// no node of the subtree has minRows rows, so none yields a candidate,
// and the subtree is exactly the subsets of r's entries right of dc
// that carry positive value, up to MaxCols-depth of them: with m such
// entries, V = Σ_{j=0}^{min(m, MaxCols-depth)} C(m, j) visits, each
// of them an eval except at a root. When the subtree does not fit the
// visit budget left, it is left to the live search, so Truncated and
// the truncation point stay exact.
func (s *searcher) countSubtree(r, dc, depth int) bool {
	refs := s.ix.RowRefs[r]
	entries := s.ix.Rows[r].Entries
	m := 0
	for k := len(refs) - 1; k >= 0 && int(refs[k]) > dc; k-- {
		if s.value(entries[k]) > 0 {
			m++
		}
	}
	v, ok := subsetCount(m, s.cfg.MaxCols-depth, s.cfg.MaxVisits-s.stats.Visits)
	if !ok {
		return false
	}
	s.stats.Visits += v
	s.stats.Evals += v
	if depth < 2 {
		s.stats.Evals-- // a root is not evaluated
	}
	return true
}

// subsetCount returns the number of subsets of at most k of m items,
// Σ_{j=0}^{min(m,k)} C(m, j), when it is at most limit; ok is false
// otherwise. No step overflows.
func subsetCount(m, k, limit int) (n int, ok bool) {
	if limit < 1 {
		return 0, false
	}
	n, c := 1, uint64(1)
	for j := 0; j < min(m, k); j++ {
		// C(m, j+1) = C(m, j)·(m-j)/(j+1), the division exact; a
		// quotient of 64 bits or more cannot fit.
		hi, lo := bits.Mul64(c, uint64(m-j))
		if hi >= uint64(j+1) {
			return 0, false
		}
		if c, _ = bits.Div64(hi, lo, uint64(j+1)); c > uint64(limit-n) {
			return 0, false
		}
		n += int(c)
	}
	return n, true
}

// evaluate computes the gain of the rectangle spanned by the chosen
// columns and the profitable subset of the current rows, updating
// best.
//
// Gain model (paper §2, validated against Examples 1.1 and 5.2): each
// row i rewrites its covered cubes into the single cube
// cokernel_i·X, so contributes Σ_j value(e_ij) − (|cokernel_i|+1);
// the new node X costs Σ_j |cube_j| literals. A cube claimed twice
// within one rectangle is counted once.
func (s *searcher) evaluate(depth int) {
	s.stats.Evals++
	sc := s.sc
	ix := s.ix
	newNodeCost := sc.kcost[depth-1]
	keep := sc.keep[:0]
	seenIDs := sc.seenIDs[:0]
	total := 0
	for wi, w := range sc.rows[depth-1] {
		for w != 0 {
			r := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			row := ix.Rows[r]
			rowVal := 0
			for d := 0; d < depth; d++ {
				k := ix.EntryAt(r, sc.dcols[d])
				e := row.Entries[k]
				if sc.seen.Test(int(e.CubeID)) {
					continue
				}
				v := s.value(e)
				if v > 0 {
					sc.seen.Set(int(e.CubeID))
					seenIDs = append(seenIDs, e.CubeID)
				}
				rowVal += v
			}
			contrib := rowVal - (row.CoKernel.Weight() + 1)
			if contrib > 0 {
				keep = append(keep, row.ID)
				total += contrib
			}
		}
	}
	for _, id := range seenIDs {
		sc.seen.Clear(int(id))
	}
	sc.seenIDs = seenIDs[:0]
	sc.keep = keep[:0]
	gain := total - newNodeCost
	if len(keep) < minRows || gain <= 0 {
		return
	}
	cand := Rect{
		Rows: append([]int64(nil), keep...),
		Cols: append([]int64(nil), sc.cols[:depth]...),
		Gain: gain,
	}
	s.local, _ = insertRanked(s.local, cand, s.listCap())
	s.offer(cand)
}

// offer makes cand the incumbent best when it ranks above it,
// reporting the change to OnBest.
func (s *searcher) offer(cand Rect) {
	if !s.better(cand) {
		return
	}
	if s.cfg.OnBest != nil {
		s.cfg.OnBest(s.best, cand)
	}
	s.best = cand
}

// better reports whether cand should replace the current best, with a
// total deterministic order.
func (s *searcher) better(cand Rect) bool {
	cur := s.best
	if cur.Rows == nil {
		return true
	}
	if cand.Gain != cur.Gain {
		return cand.Gain > cur.Gain
	}
	if d := compareIDs(cand.Cols, cur.Cols); d != 0 {
		return d < 0
	}
	return compareIDs(cand.Rows, cur.Rows) < 0
}

// scratch is the per-search arena: row-subset bitsets, candidate
// masks and value accumulators per depth, the seen-cube set of
// evaluate, and the chosen-column stacks. Arenas recycle through a
// sync.Pool and grow monotonically, so steady-state searches allocate
// only their result rectangles.
type scratch struct {
	// top and local keep the searcher's ranking buffers between
	// searches; results never alias them.
	top, local []Rect
	// roots lists the dense root columns of one search, and todo
	// those of its presearch.
	roots   []int
	todo    []presearchRoot
	rows    []bitset.Set // per depth: current row subset
	cand    []bitset.Set // per depth: candidate extension columns
	cvals   [][]int      // per depth: claimable value per dense col
	only    [][]int32    // per depth: a candidate's only row, or -1
	seen    bitset.Set   // by cube id; always left zeroed
	seenIDs []int64
	keep    []int64
	cols    []int64 // chosen column ids
	dcols   []int   // chosen dense columns
	kcost   []int   // prefix kernel cost of chosen columns

	rowWords, colWords, nCols, depths int
	rowsBack, candBack                bitset.Set
	cvalBack                          []int
	onlyBack                          []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(nRows, nCols, cubeBits, maxCols int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.ensure(nRows, nCols, cubeBits, maxCols)
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// ensure sizes the arena for a matrix of nRows x nCols, cube ids below
// cubeBits, and search depth maxCols, reusing prior capacity.
func (sc *scratch) ensure(nRows, nCols, cubeBits, maxCols int) {
	rw, cw := bitset.Words(nRows), bitset.Words(nCols)
	if rw > sc.rowWords || cw > sc.colWords || nCols > sc.nCols || maxCols > sc.depths {
		if rw > sc.rowWords {
			sc.rowWords = rw
		}
		if cw > sc.colWords {
			sc.colWords = cw
		}
		if nCols > sc.nCols {
			sc.nCols = nCols
		}
		if maxCols > sc.depths {
			sc.depths = maxCols
		}
		sc.rowsBack = make(bitset.Set, sc.depths*sc.rowWords)
		sc.candBack = make(bitset.Set, sc.depths*sc.colWords)
		sc.cvalBack = make([]int, sc.depths*sc.nCols)
		sc.onlyBack = make([]int32, sc.depths*sc.nCols)
		sc.rows = make([]bitset.Set, sc.depths)
		sc.cand = make([]bitset.Set, sc.depths)
		sc.cvals = make([][]int, sc.depths)
		sc.only = make([][]int32, sc.depths)
		sc.cols = make([]int64, sc.depths)
		sc.dcols = make([]int, sc.depths)
		sc.kcost = make([]int, sc.depths)
	}
	// Reslice the per-depth views to this search's exact widths so
	// bitset operations agree with the matrix index's sets.
	for d := 0; d < sc.depths; d++ {
		sc.rows[d] = sc.rowsBack[d*sc.rowWords : d*sc.rowWords+rw]
		sc.cand[d] = sc.candBack[d*sc.colWords : d*sc.colWords+cw]
		sc.cvals[d] = sc.cvalBack[d*sc.nCols : d*sc.nCols+nCols]
		sc.only[d] = sc.onlyBack[d*sc.nCols : d*sc.nCols+nCols]
	}
	if bitset.Words(cubeBits) > len(sc.seen) {
		sc.seen = bitset.New(cubeBits)
	}
}

// CompareRects orders rectangles by descending gain with the same
// deterministic tie-break as the searcher; parallel workers use it to
// reduce their local winners to the global one.
func CompareRects(a, b Rect) int {
	switch {
	case a.Rows == nil && b.Rows == nil:
		return 0
	case a.Rows == nil:
		return 1
	case b.Rows == nil:
		return -1
	}
	if a.Gain != b.Gain {
		if a.Gain > b.Gain {
			return -1
		}
		return 1
	}
	if d := compareIDs(a.Cols, b.Cols); d != 0 {
		return d
	}
	return compareIDs(a.Rows, b.Rows)
}

func compareIDs(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// SplitColumns deals the sorted column ids of m round-robin-by-block
// into p contiguous slices, Figure 1's "processor 1 gets the
// rectangles whose leftmost columns are in the left third" split.
func SplitColumns(m *kcm.Matrix, p int) [][]int64 {
	ids := m.Index().ColIDs
	out := make([][]int64, p)
	n := len(ids)
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		out[i] = ids[lo:hi]
	}
	return out
}
