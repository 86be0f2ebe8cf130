package lshape_test

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/lshape"
	"repro/internal/tables"
)

// TestRunPinned runs lshape.Run, Table 4's driver, with the table
// harness's search options on generated misex3, dalu and des at k = 2,
// 4 and 6. Each run must return the literal count, calls, extractions
// and work recorded here: the cover through one Cover across the
// L-matrices, its memo replays and its presearch, at any GOMAXPROCS,
// must not move them.
func TestRunPinned(t *testing.T) {
	opt := tables.DefaultConfig().Opt
	lopt := lshape.Options{Kernel: opt.Kernel, Rect: opt.Rect, Partition: opt.Partition, BatchK: opt.BatchK}
	for _, want := range []struct {
		name                    string
		k, lc, calls, extracted int
		work                    extract.Work
	}{
		{"misex3", 2, 1188, 3, 52, extract.Work{KernelPairs: 1192, MatrixEntries: 3159, SearchVisits: 11969, DivisionCubes: 3252}},
		{"misex3", 4, 1202, 3, 53, extract.Work{KernelPairs: 1196, MatrixEntries: 3180, SearchVisits: 9613, DivisionCubes: 3166}},
		{"misex3", 6, 1202, 3, 54, extract.Work{KernelPairs: 1180, MatrixEntries: 3132, SearchVisits: 9191, DivisionCubes: 3125}},
		{"dalu", 2, 2890, 3, 130, extract.Work{KernelPairs: 2884, MatrixEntries: 7763, SearchVisits: 52230, DivisionCubes: 7694}},
		{"dalu", 4, 2930, 3, 133, extract.Work{KernelPairs: 2955, MatrixEntries: 7968, SearchVisits: 37011, DivisionCubes: 7839}},
		{"dalu", 6, 2950, 4, 130, extract.Work{KernelPairs: 3797, MatrixEntries: 10113, SearchVisits: 39605, DivisionCubes: 7668}},
		{"des", 2, 6663, 3, 156, extract.Work{KernelPairs: 9196, MatrixEntries: 28031, SearchVisits: 412037, DivisionCubes: 11715}},
		{"des", 4, 6711, 3, 147, extract.Work{KernelPairs: 9377, MatrixEntries: 28626, SearchVisits: 277348, DivisionCubes: 11129}},
		{"des", 6, 6765, 3, 136, extract.Work{KernelPairs: 9550, MatrixEntries: 29260, SearchVisits: 233109, DivisionCubes: 10391}},
	} {
		nw, err := gen.Benchmark(want.name)
		if err != nil {
			t.Fatal(err)
		}
		res := lshape.Run(nw, want.k, lopt)
		if lc := nw.Literals(); lc != want.lc || res.Calls != want.calls || res.Extracted != want.extracted || res.Work != want.work {
			t.Errorf("%s k=%d: LC %d, %d calls, %d extracted, %+v; want LC %d, %d calls, %d extracted, %+v",
				want.name, want.k, lc, res.Calls, res.Extracted, res.Work, want.lc, want.calls, want.extracted, want.work)
		}
	}
}
