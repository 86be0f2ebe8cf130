package rect

import (
	"runtime"
	"sync/atomic"

	"repro/internal/fanout"
	"repro/internal/fault"
)

// presearchRoot is one root column a presearch may search.
type presearchRoot struct {
	dc int
	// before sums the memoized visits of the fresh roots ahead of this
	// one: a lower bound on the visits run's loop has spent when it
	// reaches this root.
	before int
	// stored is set by the worker that completed the root's search
	// and wrote its memo slot.
	stored bool
}

// presearch fills the Cover's root memo for the roots of a memoized
// search that have no fresh entry, searching them concurrently on
// GOMAXPROCS goroutines, the caller's included: Figure 1's split of
// the search tree by leftmost column (§3), spent on wall-clock time.
// run's loop then replays these roots in label order like any other
// memo entry, so the ranking, tie-breaks, Stats and the live search of
// the budget root are those of the serial search whatever the schedule.
//
// Roots are handed out in label order, so the leftmost roots, which
// carry the largest subtrees, start first. A root is not handed out
// once the memoized visits before it plus the visits of the searches
// already done exceed MaxVisits, since run's loop would run out of
// budget before reaching it. Each root is searched with the budget
// left after the memoized visits before it; one that runs out is not
// stored, and run's loop searches it live.
//
// Workers only read the Cover's set and the index, and call the
// Valuer, each with its own scratch arena and Stats, and each writes
// only the memo slots of the roots it took; a root whose value is zero
// gets the empty entry run's loop would store. The freshness bits are
// set after the fan-out.
func (s *searcher) presearch(roots []int) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return
	}
	listCap := s.listCap()
	todo := s.sc.todo[:0]
	before := 0
	for _, dc := range roots {
		if before > s.cfg.MaxVisits {
			break
		}
		if len(s.ix.ColRows[dc]) == 0 {
			continue
		}
		if e := s.cover.memo.memoized(dc, listCap); e != nil {
			before += e.visits
		} else {
			todo = append(todo, presearchRoot{dc: dc, before: before})
		}
	}
	s.sc.todo = todo
	n := min(procs, len(todo))
	if n < 2 {
		return
	}
	var next, spent atomic.Int64
	fanout.Run(n, func(int) {
		w := newSearcher(s.m, s.cfg, s.val)
		defer w.release()
		w.topCap = s.topCap
		for {
			i := int(next.Add(1) - 1)
			if i >= len(todo) || todo[i].before+int(spent.Load()) > s.cfg.MaxVisits {
				return
			}
			fault.Inject(fault.PointRectPresearch)
			t := &todo[i]
			w.stats = Stats{}
			w.cfg.MaxVisits = s.cfg.MaxVisits - t.before
			w.searchRoot(t.dc)
			spent.Add(int64(w.stats.Visits))
			if !w.stats.Truncated {
				s.cover.memo.put(t.dc, w.local, w.stats.Visits, w.stats.Evals, listCap)
				t.stored = true
			}
		}
	})
	for _, t := range todo {
		if t.stored {
			s.cover.memo.fresh.Set(t.dc)
		}
	}
}
