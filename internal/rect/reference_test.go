package rect

import (
	"math"
	"sort"

	"repro/internal/kcm"
)

// This file retains the original map-based searcher, verbatim in
// behavior, as the reference implementation the bitset fast path is
// validated against: the property tests assert that ReferenceBest and
// ReferenceBestK agree bit-for-bit (rectangles, batches and Stats)
// with Best and BestK on randomized matrices. It is not used on any
// hot path.

// ReferenceBest is the pre-bitset Best: same enumeration order, same
// tie-breaking, same stats accounting, implemented with maps and
// per-visit slices.
func ReferenceBest(m *kcm.Matrix, cfg Config, val Valuer) (Rect, Stats) {
	s := &refSearcher{m: m, cfg: withDefaults(cfg), val: refValuer(cfg, val)}
	s.run(cfg.LeftmostCols)
	return s.best, s.stats
}

// ReferenceBestK is the pre-bitset BestK.
func ReferenceBestK(m *kcm.Matrix, cfg Config, val Valuer, k int) ([]Rect, Stats) {
	if k <= 1 {
		best, stats := ReferenceBest(m, cfg, val)
		if best.Rows == nil {
			return nil, stats
		}
		return []Rect{best}, stats
	}
	s := &refSearcher{m: m, cfg: withDefaults(cfg), val: refValuer(cfg, val), topCap: 8 * k}
	s.run(cfg.LeftmostCols)
	return refSelectDisjoint(m, s.top, k), s.stats
}

// refSelectDisjoint is the map-based disjoint selection the arena
// bitset version of selectDisjoint is checked against.
func refSelectDisjoint(m *kcm.Matrix, top []Rect, k int) []Rect {
	var out []Rect
	used := map[int64]bool{}
	for _, cand := range top {
		if len(out) >= k {
			break
		}
		ids := coveredCubeIDs(m, cand)
		overlap := false
		for _, id := range ids {
			if used[id] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, id := range ids {
			used[id] = true
		}
		out = append(out, cand)
	}
	return out
}

// coveredCubeIDs lists the distinct function cubes rectangle r covers.
func coveredCubeIDs(m *kcm.Matrix, r Rect) []int64 {
	var ids []int64
	seen := map[int64]bool{}
	for _, rid := range r.Rows {
		row := m.Row(rid)
		for _, c := range r.Cols {
			if e, ok := row.Entry(c); ok && !seen[e.CubeID] {
				seen[e.CubeID] = true
				ids = append(ids, e.CubeID)
			}
		}
	}
	return ids
}

// refValuer composes the effective valuer the same way the searcher
// does: a cube in cfg.Cover's set is worth zero; any other is valued
// by val, or at its weight when val is nil.
func refValuer(cfg Config, val Valuer) Valuer {
	return func(e kcm.Entry) int {
		if cfg.Cover != nil && cfg.Cover.Has(e.CubeID) {
			return 0
		}
		if val == nil {
			return e.Weight
		}
		return val(e)
	}
}

type refSearcher struct {
	m      *kcm.Matrix
	cfg    Config
	val    Valuer
	best   Rect
	stats  Stats
	top    []Rect
	topCap int
}

func (s *refSearcher) run(leftmost []int64) {
	roots := leftmost
	if roots == nil {
		roots = s.m.Index().ColIDs
	} else {
		roots = append([]int64(nil), roots...)
		sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	}
	all := s.m.Index().ColIDs
	for _, c0 := range roots {
		col := s.m.Col(c0)
		if col == nil || len(col.RowIDs) == 0 {
			continue
		}
		if s.colValue(c0, col.RowIDs) == 0 {
			// Zero-value dominance prune, as in Best.
			continue
		}
		s.recurse([]int64{c0}, col.RowIDs, all)
		if s.stats.Truncated {
			break
		}
	}
}

// colValue sums the claimable values of column c's entries within the
// given rows.
func (s *refSearcher) colValue(c int64, rows []int64) int {
	total := 0
	for _, rid := range rows {
		if e, ok := s.m.Row(rid).Entry(c); ok {
			total += s.val(e)
		}
	}
	return total
}

func (s *refSearcher) recurse(cols []int64, rows []int64, all []int64) {
	s.stats.Visits++
	if s.stats.Visits > s.cfg.MaxVisits {
		s.stats.Truncated = true
		return
	}
	if len(cols) >= 2 {
		s.evaluate(cols, rows)
	}
	if len(cols) >= s.cfg.MaxCols {
		return
	}
	last := cols[len(cols)-1]
	// Candidate extensions: columns beyond last present in >= 1 of
	// the current rows, carrying non-zero claimable value.
	cand := map[int64]int{}
	for _, rid := range rows {
		r := s.m.Row(rid)
		for _, e := range r.Entries {
			if e.Col > last {
				cand[e.Col] += s.val(e)
			}
		}
	}
	// Walk candidates in increasing label order for determinism.
	for _, c := range all {
		if c <= last || cand[c] <= 0 {
			continue
		}
		var sub []int64
		for _, rid := range rows {
			if _, ok := s.m.Row(rid).Entry(c); ok {
				sub = append(sub, rid)
			}
		}
		if len(sub) == 0 {
			continue
		}
		s.recurse(append(cols, c), sub, all)
		if s.stats.Truncated {
			return
		}
	}
}

func (s *refSearcher) evaluate(cols []int64, rows []int64) {
	s.stats.Evals++
	newNodeCost := 0
	for _, c := range cols {
		newNodeCost += s.m.Col(c).Cube.Weight()
	}
	var keep []int64
	total := 0
	var seen map[int64]bool
	for _, rid := range rows {
		r := s.m.Row(rid)
		rowVal := 0
		for _, c := range cols {
			e, ok := r.Entry(c)
			if !ok {
				rowVal = math.MinInt32
				break
			}
			if seen[e.CubeID] {
				continue
			}
			v := s.val(e)
			if v > 0 {
				if seen == nil {
					seen = map[int64]bool{}
				}
				seen[e.CubeID] = true
			}
			rowVal += v
		}
		contrib := rowVal - (r.CoKernel.Weight() + 1)
		if contrib > 0 {
			keep = append(keep, rid)
			total += contrib
		}
	}
	gain := total - newNodeCost
	if len(keep) < minRows || gain <= 0 {
		return
	}
	cand := Rect{Rows: keep, Cols: append([]int64(nil), cols...), Gain: gain}
	if s.topCap > 0 {
		s.recordRefTop(cand)
	}
	if s.betterRef(cand) {
		if s.cfg.OnBest != nil {
			s.cfg.OnBest(s.best, cand)
		}
		s.best = cand
	}
}

func (s *refSearcher) betterRef(cand Rect) bool {
	cur := s.best
	if cur.Rows == nil {
		return true
	}
	return CompareRects(cand, cur) < 0
}

func (s *refSearcher) recordRefTop(cand Rect) {
	n := len(s.top)
	if n == s.topCap && CompareRects(cand, s.top[n-1]) >= 0 {
		return
	}
	i := sort.Search(n, func(i int) bool { return CompareRects(cand, s.top[i]) < 0 })
	s.top = append(s.top, Rect{})
	copy(s.top[i+1:], s.top[i:])
	s.top[i] = cand
	if len(s.top) > s.topCap {
		s.top = s.top[:s.topCap]
	}
}
