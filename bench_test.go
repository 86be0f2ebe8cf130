// Benchmarks regenerating each table and figure of the paper's
// evaluation at benchmark scale. Every BenchmarkTableN corresponds to
// a row-generation run of that table (cmd/tables runs the full-size
// suite); custom metrics report the quality (LC) and speedup figures
// the tables print, so `go test -bench . -benchmem` reproduces the
// paper's shape: the replicated algorithm barely speeds up, the
// partitioned one speeds up the most but loses quality, and the
// L-shaped one sits between with near-sequential quality.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/factored"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/power"
	"repro/internal/rect"
	"repro/internal/script"
	"repro/internal/sop"
	"repro/internal/tables"
)

// benchOpt is the harness configuration at benchmark scale.
func benchOpt() core.Options {
	return core.Options{
		Rect:   rect.Config{MaxCols: 5, MaxVisits: 50000},
		BatchK: 16,
	}
}

func benchCircuit(b *testing.B, name string) *network.Network {
	b.Helper()
	nw, err := gen.Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// ------------------------------------------------------------- Table 1

// BenchmarkTable1Script times one full synthesis script run per
// circuit and reports factorization's share of the work — the
// paper's Table 1 measurement (61.45% there).
func BenchmarkTable1Script(b *testing.B) {
	for _, name := range []string{"misex3", "dalu"} {
		b.Run(name, func(b *testing.B) {
			opt := benchOpt()
			var res script.Result
			for i := 0; i < b.N; i++ {
				nw := benchCircuit(b, name)
				res = script.Run(nw, script.Options{Rect: opt.Rect, BatchK: opt.BatchK})
			}
			b.ReportMetric(float64(res.FinalLC), "LC")
			b.ReportMetric(100*res.FacWall.Seconds()/res.TotalWall.Seconds(), "fac%wall")
			b.ReportMetric(float64(res.FacInvocations), "fac-calls")
		})
	}
}

// ------------------------------------------------------------- Table 2

// BenchmarkTable2Replicated runs the §3 replicated algorithm; the
// speedup metric is measured against the algorithm's own p=1 run,
// exactly the paper's S column. Expect it to stay well below p.
func BenchmarkTable2Replicated(b *testing.B) {
	opt := benchOpt()
	opt.BatchK = 1
	opt.Rect.MaxVisits = 8000
	nw := benchCircuit(b, "misex3")
	base := core.Replicated(context.Background(), nw.CloneDetached(), 1, opt)
	for _, p := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.Replicated(context.Background(), nw.CloneDetached(), p, opt)
			}
			b.ReportMetric(float64(res.LC), "LC")
			b.ReportMetric(core.Speedup(base, res), "speedup")
			b.ReportMetric(float64(res.Barriers), "barriers")
		})
	}
}

// ------------------------------------------------------------- Table 3

// BenchmarkTable3Partitioned runs the §4 independent-partition
// algorithm against the sequential baseline; expect the largest
// speedups of the three and the worst quality.
func BenchmarkTable3Partitioned(b *testing.B) {
	opt := benchOpt()
	base := core.Sequential(context.Background(), benchCircuit(b, "dalu"), opt)
	for _, p := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.Partitioned(context.Background(), benchCircuit(b, "dalu"), p, opt)
			}
			b.ReportMetric(float64(res.LC), "LC")
			b.ReportMetric(core.Speedup(base, res), "speedup")
		})
	}
}

// ------------------------------------------------------------- Table 4

// BenchmarkTable4LShapedSequential runs k-way L-shaped extraction on
// one processor; quality should track the SIS baseline (LC metric).
func BenchmarkTable4LShapedSequential(b *testing.B) {
	opt := benchOpt()
	for _, k := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var lc int
			for i := 0; i < b.N; i++ {
				nw := benchCircuit(b, "misex3")
				lshape.Run(nw, k, lshape.Options{Rect: opt.Rect, BatchK: opt.BatchK})
				lc = nw.Literals()
			}
			b.ReportMetric(float64(lc), "LC")
		})
	}
}

// ------------------------------------------------------------- Table 6

// BenchmarkTable6LShaped runs the §5 parallel L-shaped algorithm;
// expect speedups between Tables 2 and 3 with near-sequential LC.
func BenchmarkTable6LShaped(b *testing.B) {
	opt := benchOpt()
	base := core.Sequential(context.Background(), benchCircuit(b, "dalu"), opt)
	for _, p := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.LShaped(context.Background(), benchCircuit(b, "dalu"), p, opt)
			}
			b.ReportMetric(float64(res.LC), "LC")
			b.ReportMetric(core.Speedup(base, res), "speedup")
		})
	}
}

// ------------------------------------------------------- Figures 1–4

// BenchmarkFig1SearchSplit benchmarks the divide-and-conquer
// rectangle search of Figure 1: the full search versus one worker's
// root-column slice (of 4). des has the largest matrix, so its case
// shows what indexing the matrix costs.
func BenchmarkFig1SearchSplit(b *testing.B) {
	for _, name := range []string{"misex3", "des"} {
		nw := benchCircuit(b, name)
		m := kcm.Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
		cfg := rect.Config{MaxCols: 5, MaxVisits: 1 << 20}
		b.Run(name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rect.Best(m, cfg, rect.WeightValuer)
			}
		})
		b.Run(name+"/slice1of4", func(b *testing.B) {
			b.ReportAllocs()
			slices := rect.SplitColumns(m, 4)
			c := cfg
			c.LeftmostCols = slices[0]
			for i := 0; i < b.N; i++ {
				rect.Best(m, c, rect.WeightValuer)
			}
		})
	}
}

// BenchmarkFig2MatrixBuild benchmarks co-kernel cube matrix
// construction (the structure of Figure 2) on a real circuit: a
// one-shot Patcher kerneling on one worker.
func BenchmarkFig2MatrixBuild(b *testing.B) {
	nw := benchCircuit(b, "dalu")
	nodes := nw.NodeVars()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kcm.NewPatcher(0, kernels.Options{}).Rebuild(context.Background(), nw, nodes, 1)
	}
}

// BenchmarkFig2MatrixBuildParallel is BenchmarkFig2MatrixBuild with
// kerneling sharded across the paper's p=6 workers (labels identical
// for any worker count).
func BenchmarkFig2MatrixBuildParallel(b *testing.B) {
	nw := benchCircuit(b, "dalu")
	nodes := nw.NodeVars()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kcm.NewPatcher(0, kernels.Options{}).Rebuild(context.Background(), nw, nodes, 6)
	}
}

// BenchmarkFig2MatrixBuildIncremental benchmarks the Patcher steady
// state: each round dirties ~5% of the nodes (the footprint of one
// extraction round) and rebuilds, re-kerneling only those.
func BenchmarkFig2MatrixBuildIncremental(b *testing.B) {
	nw := benchCircuit(b, "dalu")
	nodes := nw.NodeVars()
	p := kcm.NewPatcher(0, kernels.Options{})
	p.Rebuild(context.Background(), nw, nodes, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < len(nodes)/20+1; k++ {
			p.MarkDirty(nodes[(i*31+k*17)%len(nodes)])
		}
		p.Rebuild(context.Background(), nw, nodes, 6)
	}
}

// BenchmarkFig34LShapeAssembly benchmarks ownership distribution and
// B_ij exchange (Figures 3 and 4). des has the largest L-matrices.
func BenchmarkFig34LShapeAssembly(b *testing.B) {
	for _, name := range []string{"dalu", "des"} {
		nw := benchCircuit(b, name)
		for _, p := range []int{2, 6} {
			b.Run(fmt.Sprintf("%s/p%d", name, p), func(b *testing.B) {
				pp := tablesKWay(nw, p)
				mats := lshape.BuildMatrices(nw, pp, kernels.Options{})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					own := lshape.Distribute(mats)
					lshape.Assemble(mats, own)
				}
			})
		}
	}
}

// BenchmarkEq3SpeedupModel benchmarks the sparsity measurement and
// analytic speedup model of Equation 3.
func BenchmarkEq3SpeedupModel(b *testing.B) {
	nw := benchCircuit(b, "misex3")
	for i := 0; i < b.N; i++ {
		alpha, gamma := tables.MeasuredSparsity(nw, 4, kernels.Options{}, partitionOptions())
		tables.SpeedupModel(4, alpha, gamma)
	}
}

// ------------------------------------------------------- Ablations

// BenchmarkAblationZeroCostCheck compares the L-shaped algorithm with
// and without the §5.3 zero-cost profitability re-check; disabling it
// re-expands covered cubes and costs quality (LC metric).
func BenchmarkAblationZeroCostCheck(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "enabled"
		if disable {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			opt := benchOpt()
			opt.DisableZeroCostCheck = disable
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.LShaped(context.Background(), benchCircuit(b, "misex3"), 4, opt)
			}
			b.ReportMetric(float64(res.LC), "LC")
		})
	}
}

// BenchmarkAblationOwnerCheck compares owner-aware COVERED values
// against naive zeroing (§5.3's order-dependent bias).
func BenchmarkAblationOwnerCheck(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "enabled"
		if disable {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			opt := benchOpt()
			opt.DisableOwnerCheck = disable
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.LShaped(context.Background(), benchCircuit(b, "misex3"), 4, opt)
			}
			b.ReportMetric(float64(res.LC), "LC")
		})
	}
}

// BenchmarkAblationBatchK compares strict one-rectangle-per-search
// greedy covering (SIS-faithful) against batched harvesting.
func BenchmarkAblationBatchK(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			opt := benchOpt()
			opt.BatchK = k
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.Sequential(context.Background(), benchCircuit(b, "misex3"), opt)
			}
			b.ReportMetric(float64(res.LC), "LC")
		})
	}
}

// BenchmarkAblationSearchCaps sweeps the rectangle-search visit cap
// (the branch-and-bound budget): time falls, quality may degrade.
func BenchmarkAblationSearchCaps(b *testing.B) {
	for _, visits := range []int{2000, 20000, 200000} {
		b.Run(fmt.Sprintf("visits%d", visits), func(b *testing.B) {
			opt := benchOpt()
			opt.Rect.MaxVisits = visits
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.Sequential(context.Background(), benchCircuit(b, "misex3"), opt)
			}
			b.ReportMetric(float64(res.LC), "LC")
		})
	}
}

// BenchmarkAblationWallclock demonstrates why speedup is measured in
// virtual time: on the 2-vCPU reference host, wall time cannot improve
// past p=2, and even p=1 searches its un-memoized roots on both vCPUs
// (DESIGN.md §6), while virtual time keeps following the modeled
// p-processor machine (see DESIGN.md §2 and §5).
func BenchmarkAblationWallclock(b *testing.B) {
	opt := benchOpt()
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.Partitioned(context.Background(), benchCircuit(b, "misex3"), p, opt)
			}
			b.ReportMetric(float64(res.VirtualTime), "vtime")
		})
	}
}

// ----------------------------------------------------- micro benches

// BenchmarkKernelExtractCall times a single factorization call (one
// matrix build plus greedy cover), the unit of Table 1's counts, on
// misex3 and on des, whose matrix is the largest. The circuit is
// generated once; each iteration factors a fresh copy made with the
// timer stopped.
func BenchmarkKernelExtractCall(b *testing.B) {
	opt := benchOpt()
	for _, name := range []string{"misex3", "des"} {
		src := benchCircuit(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw := src.CloneDetached()
				b.StartTimer()
				extract.KernelExtract(context.Background(), nw, nil, extract.Options{Rect: opt.Rect, BatchK: opt.BatchK})
			}
		})
	}
}

// BenchmarkRepeat times extract.Repeat, the 3–4 factorization calls
// of one circuit: each call after the first assembles its matrix,
// dense index and Cover memo in the storage of the call before, which
// BenchmarkKernelExtractCall's single call cannot show. Each iteration
// factors a fresh copy made with the timer stopped.
func BenchmarkRepeat(b *testing.B) {
	opt := benchOpt()
	for _, name := range []string{"misex3", "dalu", "des"} {
		src := benchCircuit(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw := src.CloneDetached()
				b.StartTimer()
				extract.Repeat(context.Background(), nw, nil, extract.Options{Rect: opt.Rect, BatchK: opt.BatchK})
			}
		})
	}
}

func tablesKWay(nw *network.Network, p int) [][]sop.Var {
	return partition.KWay(nw, nil, p, partition.Options{})
}

func partitionOptions() partition.Options { return partition.Options{} }

// BenchmarkPowerWeightedCover benchmarks the low-power extension: the
// activity-weighted rectangle cover of the conclusion.
func BenchmarkPowerWeightedCover(b *testing.B) {
	var res power.Result
	for i := 0; i < b.N; i++ {
		nw := benchCircuit(b, "misex3")
		var err error
		res, err = power.Extract(nw, kernels.Options{},
			rect.Config{MaxCols: 5, MaxVisits: 50000}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ActivityAfter, "activity")
	b.ReportMetric(float64(res.LCAfter), "LC")
}

// BenchmarkFactorForms benchmarks single-function factoring (the
// factored-form substrate).
func BenchmarkFactorForms(b *testing.B) {
	nw := benchCircuit(b, "misex3")
	vars := nw.NodeVars()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, v := range vars[:20] {
			factored.Factor(nw.Node(v).Fn)
		}
	}
}
