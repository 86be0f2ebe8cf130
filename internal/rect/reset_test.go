package rect

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
)

// TestPropertyCoverResetMatchesFresh drives one Patcher through node
// lists that grow and shrink, so each matrix refills the storage of
// the one before, and runs a greedy cover of every matrix three ways.
// One Cover, reset onto each matrix in turn, must give the same BestK
// batches and Stats as a fresh NewCover per matrix that is marked
// alike. A third Cover is carried across the matrices with no Reset,
// its old marks kept: it must match a search under its Valuer with no
// Cover, which holds only because a refilled matrix's index is a new
// value, so the memo rebinds instead of replaying another matrix's
// roots.
func TestPropertyCoverResetMatchesFresh(t *testing.T) {
	ctx := context.Background()
	cfg := Config{MaxCols: 5, MaxVisits: 20000}
	const k = 4
	for _, name := range []string{"misex3", "dalu"} {
		nw, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		all := nw.NodeVars()
		pat := kcm.NewPatcher(0, kernels.Options{})
		reset, carried := new(Cover), new(Cover)
		for step, eighths := range []int{8, 3, 6, 1, 8, 4} {
			m := pat.Rebuild(ctx, nw, all[:len(all)*eighths/8], 2)
			reset.Reset(m)
			fresh := NewCover(m)
			for round := 0; ; round++ {
				c := cfg
				c.Cover = fresh
				want, wantStats := BestK(m, c, nil, k)
				c.Cover = reset
				got, gotStats := BestK(m, c, nil, k)
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					t.Fatalf("%s step %d round %d: reset Cover %+v %+v, fresh Cover %+v %+v",
						name, step, round, got, gotStats, want, wantStats)
				}
				c.Cover = carried
				got, gotStats = BestK(m, c, nil, k)
				want, wantStats = BestK(m, cfg, carried.Valuer(), k)
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					t.Fatalf("%s step %d round %d: carried Cover %+v %+v, search under its Valuer %+v %+v",
						name, step, round, got, gotStats, want, wantStats)
				}
				if len(want) == 0 || round == 6 {
					break
				}
				for _, r := range want {
					for _, id := range appendCubeIDs(nil, m, r) {
						fresh.Mark(id)
						reset.Mark(id)
						carried.Mark(id)
					}
				}
			}
		}
	}
}
