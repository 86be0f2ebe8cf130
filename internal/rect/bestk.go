package rect

import (
	"sort"

	"repro/internal/kcm"
)

// BestK returns up to k rectangles harvested from a single search
// enumeration, mutually disjoint in the function cubes they cover and
// ordered by the same deterministic ranking as Best. Batching
// amortizes the enumeration cost over several extractions per greedy
// cover round; k=1 degenerates to Best. The gains of later
// rectangles remain valid when the earlier ones are applied first
// because the cube sets do not overlap.
func BestK(m *kcm.Matrix, cfg Config, val Valuer, k int) ([]Rect, Stats) {
	if k <= 1 {
		best, stats := Best(m, cfg, val)
		if best.Rows == nil {
			return nil, stats
		}
		return []Rect{best}, stats
	}
	s := newSearcher(m, cfg, val)
	s.topCap = 8 * k
	s.run(cfg.LeftmostCols)
	out, stats := s.sc.selectDisjoint(m, s.top, k), s.stats
	s.release()
	return out, stats
}

// selectDisjoint greedily picks up to k cube-disjoint rectangles from
// the ranked candidate list. The picked cubes are tracked in the
// arena's seen bitset, which is cleared again by replaying the ids it
// set.
func (sc *scratch) selectDisjoint(m *kcm.Matrix, top []Rect, k int) []Rect {
	var out []Rect
	used, set := sc.seen, sc.seenIDs[:0]
	ids := sc.keep[:0]
	for _, cand := range top {
		if len(out) >= k {
			break
		}
		ids = appendCubeIDs(ids[:0], m, cand)
		overlap := false
		for _, id := range ids {
			if used.Test(int(id)) {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, id := range ids {
			if !used.Test(int(id)) {
				used.Set(int(id))
				set = append(set, id)
			}
		}
		out = append(out, cand)
	}
	for _, id := range set {
		used.Clear(int(id))
	}
	sc.seenIDs, sc.keep = set[:0], ids[:0]
	return out
}

// appendCubeIDs appends the function cubes rectangle r covers to dst;
// a cube shared by two of its entries appears twice.
func appendCubeIDs(dst []int64, m *kcm.Matrix, r Rect) []int64 {
	for _, rid := range r.Rows {
		row := m.Row(rid)
		for _, c := range r.Cols {
			if e, ok := row.Entry(c); ok {
				dst = append(dst, e.CubeID)
			}
		}
	}
	return dst
}

// insertRanked inserts cand into list, kept ordered by the
// deterministic rectangle ranking and at most n long. It reports
// false, leaving list unchanged, when list is full and cand ranks
// below all of it.
func insertRanked(list []Rect, cand Rect, n int) ([]Rect, bool) {
	l := len(list)
	if l == n && CompareRects(cand, list[l-1]) >= 0 {
		return list, false
	}
	i := sort.Search(l, func(i int) bool { return CompareRects(cand, list[i]) < 0 })
	list = append(list, Rect{})
	copy(list[i+1:], list[i:])
	list[i] = cand
	if len(list) > n {
		list = list[:n]
	}
	return list, true
}
