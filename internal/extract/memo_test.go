package extract

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/rect"
)

// TestRootMemoMatchesFullSearch runs Repeat's loop (KernelExtract's
// body, with one patcher across calls) on generated benchmark circuits
// under the service's default search options. At every greedy step it
// checks the batch and Stats from the call's long-lived Cover, whose
// root memo replays the subtrees no Mark has touched, against a full
// search under the covered set's Valuer with no Cover, so no memo.
func TestRootMemoMatchesFullSearch(t *testing.T) {
	ctx := context.Background()
	opt := Options{Rect: rect.Config{MaxCols: 5, MaxVisits: 100000}, BatchK: 16}
	for _, name := range []string{"misex3", "dalu", "des"} {
		nw, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		pat := kcm.NewPatcher(0, opt.Kernel)
		active := nw.NodeVars()
		steps := 0
		for {
			before := nw.NumNodes()
			m := pat.Rebuild(ctx, nw, active, 2)
			covered := rect.NewCover(m)
			cfg := opt.Rect
			cfg.Cover = covered
			extracted := 0
			for {
				batch, stats := rect.BestK(m, cfg, nil, opt.BatchK)
				want, wantStats := rect.BestK(m, opt.Rect, covered.Valuer(), opt.BatchK)
				if !reflect.DeepEqual(batch, want) || stats != wantStats {
					t.Fatalf("%s step %d: memoized search %+v %+v, full search %+v %+v",
						name, steps, batch, stats, want, wantStats)
				}
				steps++
				if len(batch) == 0 {
					break
				}
				for _, best := range batch {
					_, dirty, _, changed := ApplyRect(nw, m, best, KernelOf(m, best), covered)
					for _, dv := range dirty {
						pat.MarkDirty(dv)
					}
					if changed {
						extracted++
					}
				}
			}
			if extracted == 0 {
				break
			}
			active = append(active, nw.NodeVars()[before:]...)
		}
		t.Logf("%s: %d search steps agree", name, steps)
	}
}
