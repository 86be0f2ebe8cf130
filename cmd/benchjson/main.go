// Command benchjson runs the key rectangle-search, matrix-build and
// extraction benchmarks through testing.Benchmark and writes the
// results as JSON, so perf changes to the hot paths can be recorded
// and diffed (BENCH_rect.json and BENCH_kcm.json at the repo root
// hold the current numbers).
//
// Usage:
//
//	benchjson                          # writes BENCH_rect.json
//	benchjson -suite kcm               # writes BENCH_kcm.json
//	benchjson -o results.json
//	benchjson -benchtime 2s
//	benchjson -suite kcm -gate BENCH_kcm.json
//
// With -gate, the fresh KernelExtractCall time is compared against
// the named baseline file and the command exits non-zero when it
// regressed by more than gateTolerance — the CI bench lane's guard
// against reintroducing the matrix-build hot path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
)

// gateTolerance is the allowed fractional ns/op regression of
// KernelExtractCall against the checked-in baseline before -gate
// fails the run.
const gateTolerance = 0.20

// gateBenchmark is the benchmark -gate compares.
const gateBenchmark = "KernelExtractCall"

// Result is one benchmark's record.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func main() {
	var (
		suite     = flag.String("suite", "rect", `benchmark suite: "rect" or "kcm"`)
		out       = flag.String("o", "", "output file (default BENCH_<suite>.json)")
		benchtime = flag.Duration("benchtime", time.Second, "per-benchmark target time")
		gate      = flag.String("gate", "", "baseline JSON to gate KernelExtractCall against (exit 1 on >20% ns/op regression)")
	)
	flag.Parse()
	flag.Set("test.benchtime", benchtime.String())
	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}

	var results []Result
	switch *suite {
	case "rect":
		results = rectSuite()
	case "kcm":
		results = kcmSuite()
	default:
		fatal(fmt.Errorf("unknown suite %q", *suite))
	}

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-36s %12.0f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	fmt.Printf("wrote %s\n", *out)

	if *gate != "" {
		if err := checkGate(*gate, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: GATE FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("gate ok: %s within %.0f%% of %s\n", gateBenchmark, gateTolerance*100, *gate)
	}
}

// rectSuite is the original rectangle-search suite (BENCH_rect.json).
func rectSuite() []Result {
	misex3 := circuit("misex3")
	dalu := circuit("dalu")

	// The same workloads as BenchmarkFig1SearchSplit,
	// BenchmarkKernelExtractCall and BenchmarkFig2MatrixBuild in
	// bench_test.go.
	searchCfg := rect.Config{MaxCols: 5, MaxVisits: 1 << 20}
	m := kcm.Build(context.Background(), misex3, misex3.NodeVars(), kernels.Options{})
	slices := rect.SplitColumns(m, 4)

	return []Result{
		run("Fig1SearchSplit/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rect.Best(m, searchCfg, rect.WeightValuer)
			}
		}),
		run("Fig1SearchSplit/slice1of4", func(b *testing.B) {
			b.ReportAllocs()
			cfg := searchCfg
			cfg.LeftmostCols = slices[0]
			for i := 0; i < b.N; i++ {
				rect.Best(m, cfg, rect.WeightValuer)
			}
		}),
		runKernelExtractCall(),
		run("Fig2MatrixBuild", func(b *testing.B) {
			b.ReportAllocs()
			nodes := dalu.NodeVars()
			for i := 0; i < b.N; i++ {
				kcm.NewPatcher(0, kernels.Options{}).Rebuild(context.Background(), dalu, nodes, 1)
			}
		}),
	}
}

// kcmSuite records the matrix-build trajectory (BENCH_kcm.json): a
// one-shot Patcher build on one worker and sharded across the paper's
// p=6, and the incremental Patcher steady state, plus the end-to-end
// KernelExtractCall the -gate check reads. Workloads mirror
// BenchmarkFig2MatrixBuild* and BenchmarkKernelExtractCall in
// bench_test.go.
func kcmSuite() []Result {
	dalu := circuit("dalu")
	nodes := dalu.NodeVars()

	return []Result{
		run("Fig2MatrixBuild/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kcm.NewPatcher(0, kernels.Options{}).Rebuild(context.Background(), dalu, nodes, 1)
			}
		}),
		run("Fig2MatrixBuild/parallel6", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kcm.NewPatcher(0, kernels.Options{}).Rebuild(context.Background(), dalu, nodes, 6)
			}
		}),
		run("Fig2MatrixBuild/incremental", func(b *testing.B) {
			// Steady state: each round dirties ~5% of the nodes (one
			// extraction round's footprint) and rebuilds only those.
			p := kcm.NewPatcher(0, kernels.Options{})
			p.Rebuild(context.Background(), dalu, nodes, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < len(nodes)/20+1; k++ {
					p.MarkDirty(nodes[(i*31+k*17)%len(nodes)])
				}
				p.Rebuild(context.Background(), dalu, nodes, 6)
			}
		}),
		runKernelExtractCall(),
	}
}

// runKernelExtractCall is shared by both suites so the gate always
// has a comparable record.
func runKernelExtractCall() Result {
	extractOpt := extract.Options{
		Rect:   rect.Config{MaxCols: 5, MaxVisits: 50000},
		BatchK: 16,
	}
	src := circuit("misex3")
	return run(gateBenchmark, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Only the call is timed: each iteration factors a fresh
			// copy made with the timer stopped, as
			// BenchmarkKernelExtractCall does, keeping the JSON
			// comparable with `go test -bench`.
			b.StopTimer()
			nw := src.CloneDetached()
			b.StartTimer()
			extract.KernelExtract(context.Background(), nw, nil, extractOpt)
		}
	})
}

// checkGate compares the fresh KernelExtractCall result against the
// baseline file and errors when ns/op regressed past gateTolerance.
func checkGate(baselinePath string, fresh []Result) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline []Result
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	base := find(baseline, gateBenchmark)
	cur := find(fresh, gateBenchmark)
	if base == nil {
		return fmt.Errorf("%s has no %q record", baselinePath, gateBenchmark)
	}
	if cur == nil {
		return fmt.Errorf("fresh run has no %q record", gateBenchmark)
	}
	limit := base.NsPerOp * (1 + gateTolerance)
	if cur.NsPerOp > limit {
		return fmt.Errorf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
			gateBenchmark, cur.NsPerOp, base.NsPerOp, gateTolerance*100)
	}
	return nil
}

func find(rs []Result, name string) *Result {
	for i := range rs {
		if rs[i].Name == name {
			return &rs[i]
		}
	}
	return nil
}

func run(name string, fn func(b *testing.B)) Result {
	fmt.Fprintf(os.Stderr, "running %s...\n", name)
	br := testing.Benchmark(fn)
	return Result{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
}

func circuit(name string) *network.Network {
	nw, err := gen.Benchmark(name)
	if err != nil {
		fatal(err)
	}
	return nw
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
