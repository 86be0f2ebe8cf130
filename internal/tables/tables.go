// Package tables regenerates the paper's experimental tables and the
// Equation 3 speedup model. Each TableN method runs the experiment
// and returns structured rows; the Fprint helpers render them in the
// paper's layout. EXPERIMENTS.md records a full run against the
// paper's numbers.
package tables

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
	"repro/internal/script"
)

// Config selects circuits, processor counts and algorithm knobs.
type Config struct {
	// Circuits are the benchmark names (default: the paper's five
	// experiment circuits in table order).
	Circuits []string
	// Procs are the processor counts of the tables (default 2,4,6).
	Procs []int
	// Opt is the base algorithm configuration used everywhere.
	Opt core.Options
	// ReplicatedMaxVisits caps the per-step rectangle search of the
	// replicated algorithm (which synchronizes per rectangle and
	// would otherwise dominate wall time); 0 keeps Opt.Rect's cap.
	ReplicatedMaxVisits int
	// ReplicatedBudget is the virtual-time budget that makes spla
	// and ex1010 DNF in Table 2, as on the paper's machine.
	ReplicatedBudget int64
}

// DefaultConfig returns the configuration EXPERIMENTS.md was produced
// with.
func DefaultConfig() Config {
	return Config{
		Circuits: []string{"dalu", "des", "seq", "spla", "ex1010"},
		Procs:    []int{2, 4, 6},
		Opt: core.Options{
			Rect:   rect.Config{MaxCols: 5, MaxVisits: 100000},
			BatchK: 16,
		},
		ReplicatedMaxVisits: 20000,
		ReplicatedBudget:    6_000_000,
	}
}

// Harness caches per-circuit sequential baselines so Tables 2, 3 and
// 6 share them.
type Harness struct {
	cfg Config
	seq map[string]core.RunResult
}

// New returns a harness over cfg.
func New(cfg Config) *Harness {
	if cfg.Circuits == nil {
		cfg.Circuits = DefaultConfig().Circuits
	}
	if cfg.Procs == nil {
		cfg.Procs = DefaultConfig().Procs
	}
	return &Harness{cfg: cfg, seq: map[string]core.RunResult{}}
}

// Circuit generates a fresh instance of the named benchmark.
func (h *Harness) Circuit(name string) *network.Network {
	nw, err := gen.Benchmark(name)
	if err != nil {
		panic(err)
	}
	return nw
}

// Sequential returns the cached SIS-equivalent baseline for a
// circuit, running it on first use.
func (h *Harness) Sequential(name string) core.RunResult {
	if r, ok := h.seq[name]; ok {
		return r
	}
	nw := h.Circuit(name)
	r := core.Sequential(context.Background(), nw, h.cfg.Opt)
	h.seq[name] = r
	return r
}

// ---------------------------------------------------------------- Table 1

// T1Row is one circuit of Table 1: how much of total synthesis time
// algebraic factorization takes.
type T1Row struct {
	Name         string
	InitialLC    int
	FinalLC      int
	FacInvoked   int
	FacWork      int64
	TotalWork    int64
	FacWallSec   float64
	TotalWallSec float64
	// FacFraction is factorization's share of wall-clock synthesis
	// time — the paper's measurement (61.45% average). Work-unit
	// counts are reported too but are not comparable across phases
	// (one cube-containment probe is far cheaper than one
	// kerneling step).
	FacFraction float64
}

// Table1 runs the synthesis script on every circuit and reports the
// factorization share of total synthesis.
func (h *Harness) Table1() []T1Row {
	var rows []T1Row
	for _, name := range h.cfg.Circuits {
		nw := h.Circuit(name)
		res := script.Run(nw, script.Options{
			Kernel: h.cfg.Opt.Kernel,
			Rect:   h.cfg.Opt.Rect,
			BatchK: h.cfg.Opt.BatchK,
		})
		row := T1Row{
			Name:         name,
			InitialLC:    res.InitialLC,
			FinalLC:      res.FinalLC,
			FacInvoked:   res.FacInvocations,
			FacWork:      res.FacWork,
			TotalWork:    res.TotalWork,
			FacWallSec:   res.FacWall.Seconds(),
			TotalWallSec: res.TotalWall.Seconds(),
		}
		if res.TotalWall > 0 {
			row.FacFraction = res.FacWall.Seconds() / res.TotalWall.Seconds()
		}
		rows = append(rows, row)
	}
	return rows
}

// FprintTable1 renders Table 1 rows in the paper's layout.
func FprintTable1(w io.Writer, rows []T1Row) {
	fmt.Fprintf(w, "Table 1: factorization share of synthesis (wall seconds)\n")
	fmt.Fprintf(w, "%-8s %8s %6s %10s %10s %7s\n",
		"circuit", "LC", "#fac", "facTime", "totTime", "fac%")
	var facT, totT float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %6d %9.2fs %9.2fs %6.1f%%\n",
			r.Name, r.InitialLC, r.FacInvoked, r.FacWallSec, r.TotalWallSec,
			100*r.FacFraction)
		facT += r.FacWallSec
		totT += r.TotalWallSec
	}
	if totT > 0 {
		fmt.Fprintf(w, "%-8s %8s %6s %9.2fs %9.2fs %6.1f%%  (paper: 61.45%%)\n",
			"total", "", "", facT, totT, 100*facT/totT)
	}
}

// ------------------------------------------------------- Tables 2, 3 and 6

// AlgoRow is one circuit of Tables 2, 3 or 6: the initial LC plus the
// result at every processor count.
type AlgoRow struct {
	Name      string
	InitialLC int
	// Base is the speedup reference: the replicated algorithm's own
	// p=1 run for Table 2 (the paper's S is "compared to the single
	// processor run"), the sequential SIS run for Tables 3 and 6.
	Base core.RunResult
	// Runs maps processor count to the run result.
	Runs map[int]core.RunResult
}

// Speedup returns the S column entry for p (0 for DNF).
func (r AlgoRow) Speedup(p int) float64 {
	return core.Speedup(r.Base, r.Runs[p])
}

// Table2 runs the replicated algorithm (§3). spla and ex1010 exceed
// the work budget and report DNF, like the paper's '-' entries.
func (h *Harness) Table2() []AlgoRow {
	opt := h.cfg.Opt
	opt.BatchK = 1 // the lockstep algorithm synchronizes per rectangle
	if h.cfg.ReplicatedMaxVisits > 0 {
		opt.Rect.MaxVisits = h.cfg.ReplicatedMaxVisits
	}
	opt.WorkBudget = h.cfg.ReplicatedBudget
	var rows []AlgoRow
	for _, name := range h.cfg.Circuits {
		row := AlgoRow{Name: name, Runs: map[int]core.RunResult{}}
		nw := h.Circuit(name)
		row.InitialLC = nw.Literals()
		row.Base = core.Replicated(context.Background(), nw, 1, opt)
		for _, p := range h.cfg.Procs {
			nw := h.Circuit(name)
			row.Runs[p] = core.Replicated(context.Background(), nw, p, opt)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table3 runs the independent-partition algorithm (§4) against the
// sequential SIS baseline.
func (h *Harness) Table3() []AlgoRow {
	var rows []AlgoRow
	for _, name := range h.cfg.Circuits {
		row := AlgoRow{Name: name, Runs: map[int]core.RunResult{}}
		row.InitialLC = h.Circuit(name).Literals()
		row.Base = h.Sequential(name)
		for _, p := range h.cfg.Procs {
			nw := h.Circuit(name)
			row.Runs[p] = core.Partitioned(context.Background(), nw, p, h.cfg.Opt)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table6 runs the parallel L-shaped algorithm (§5) against the
// sequential SIS baseline.
func (h *Harness) Table6() []AlgoRow {
	var rows []AlgoRow
	for _, name := range h.cfg.Circuits {
		row := AlgoRow{Name: name, Runs: map[int]core.RunResult{}}
		row.InitialLC = h.Circuit(name).Literals()
		row.Base = h.Sequential(name)
		for _, p := range h.cfg.Procs {
			nw := h.Circuit(name)
			row.Runs[p] = core.LShaped(context.Background(), nw, p, h.cfg.Opt)
		}
		rows = append(rows, row)
	}
	return rows
}

// FprintAlgoTable renders an AlgoRow table in the paper's layout,
// with '-' for DNF entries and the normalized average row.
func FprintAlgoTable(w io.Writer, title string, procs []int, rows []AlgoRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-8s %8s", "circuit", "initLC")
	for _, p := range procs {
		fmt.Fprintf(w, " %8s %6s", fmt.Sprintf("LC(p=%d)", p), "S")
	}
	fmt.Fprintln(w)
	ratioSum := make([]float64, len(procs))
	speedSum := make([]float64, len(procs))
	counted := make([]int, len(procs))
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d", r.Name, r.InitialLC)
		for i, p := range procs {
			run, ok := r.Runs[p]
			if !ok || run.DNF {
				fmt.Fprintf(w, " %8s %6s", "-", "-")
				continue
			}
			fmt.Fprintf(w, " %8d %6.2f", run.LC, r.Speedup(p))
			ratioSum[i] += float64(run.LC) / float64(r.InitialLC)
			speedSum[i] += r.Speedup(p)
			counted[i]++
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s %8.3f", "average", 1.0)
	for i := range procs {
		if counted[i] == 0 {
			fmt.Fprintf(w, " %8s %6s", "-", "-")
			continue
		}
		fmt.Fprintf(w, " %8.3f %6.2f",
			ratioSum[i]/float64(counted[i]), speedSum[i]/float64(counted[i]))
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------- Table 4

// T4Row is one circuit of Table 4: sequential L-shaped quality vs SIS.
type T4Row struct {
	Name      string
	InitialLC int
	SISLC     int
	// KWayLC maps partition count to the final literal count of the
	// sequential L-shaped extraction.
	KWayLC map[int]int
}

// Table4 compares k-way sequential L-shaped extraction against SIS.
// Per the paper it includes misex3 and excludes ex1010.
func (h *Harness) Table4() []T4Row {
	circuits := append([]string{"misex3"}, h.cfg.Circuits...)
	var rows []T4Row
	for _, name := range circuits {
		if name == "ex1010" {
			continue
		}
		row := T4Row{Name: name, KWayLC: map[int]int{}}
		row.InitialLC = h.Circuit(name).Literals()
		row.SISLC = h.Sequential(name).LC
		for _, k := range h.cfg.Procs {
			nw := h.Circuit(name)
			lshape.Run(nw, k, lshape.Options{
				Kernel:    h.cfg.Opt.Kernel,
				Rect:      h.cfg.Opt.Rect,
				Partition: h.cfg.Opt.Partition,
				BatchK:    h.cfg.Opt.BatchK,
			})
			row.KWayLC[k] = nw.Literals()
		}
		rows = append(rows, row)
	}
	return rows
}

// FprintTable4 renders Table 4 rows.
func FprintTable4(w io.Writer, procs []int, rows []T4Row) {
	fmt.Fprintln(w, "Table 4: kernel extraction using SIS and L-shaped partitioning (1 CPU)")
	fmt.Fprintf(w, "%-8s %8s %8s", "circuit", "initLC", "SIS")
	for _, k := range procs {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("%d-way", k))
	}
	fmt.Fprintln(w)
	sisSum := 0.0
	kSum := make([]float64, len(procs))
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %8d", r.Name, r.InitialLC, r.SISLC)
		for i, k := range procs {
			fmt.Fprintf(w, " %8d", r.KWayLC[k])
			kSum[i] += float64(r.KWayLC[k]) / float64(r.InitialLC)
		}
		fmt.Fprintln(w)
		sisSum += float64(r.SISLC) / float64(r.InitialLC)
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "%-8s %8.3f %8.3f", "average", 1.0, sisSum/n)
	for i := range procs {
		fmt.Fprintf(w, " %8.3f", kSum[i]/n)
	}
	fmt.Fprintln(w)
}

// ------------------------------------------------------ Equation 3 model

// SpeedupModel evaluates the paper's Equation 3,
//
//	S(p) = p² / (1 + γ(p−1)/(2αp))²,
//
// where α and γ are the sparsity factors of the initial and L-shaped
// KC matrices.
func SpeedupModel(p int, alpha, gamma float64) float64 {
	if p <= 0 || alpha <= 0 {
		return 0
	}
	d := 1 + gamma*float64(p-1)/(2*alpha*float64(p))
	return float64(p*p) / (d * d)
}

// MeasuredSparsity builds the full KC matrix of a circuit and its
// k-way L-shaped matrices, returning α (full matrix sparsity) and γ
// (mean L-matrix sparsity).
func MeasuredSparsity(nw *network.Network, k int, kopts kernels.Options, popts partition.Options) (alpha, gamma float64) {
	full := kcm.Build(context.Background(), nw, nw.NodeVars(), kopts)
	alpha = full.Sparsity()
	parts := partition.KWay(nw, nil, k, popts)
	mats := lshape.BuildMatrices(nw, parts, kopts)
	own := lshape.Distribute(mats)
	ls, _ := lshape.Assemble(mats, own)
	sum := 0.0
	n := 0
	for _, l := range ls {
		if len(l.Rows()) > 0 {
			sum += l.Sparsity()
			n++
		}
	}
	if n > 0 {
		gamma = sum / float64(n)
	}
	return alpha, gamma
}

// ModelRow pairs the measured L-shaped speedup with the Eq. 3
// prediction for one processor count.
type ModelRow struct {
	P        int
	Alpha    float64
	Gamma    float64
	Model    float64
	Measured float64
}

// SpeedupModelTable computes the model-vs-measured comparison for one
// circuit across the harness's processor counts.
func (h *Harness) SpeedupModelTable(name string) []ModelRow {
	base := h.Sequential(name)
	var rows []ModelRow
	for _, p := range h.cfg.Procs {
		nw := h.Circuit(name)
		alpha, gamma := MeasuredSparsity(nw, p, h.cfg.Opt.Kernel, h.cfg.Opt.Partition)
		run := core.LShaped(context.Background(), nw, p, h.cfg.Opt)
		rows = append(rows, ModelRow{
			P:        p,
			Alpha:    alpha,
			Gamma:    gamma,
			Model:    SpeedupModel(p, alpha, gamma),
			Measured: core.Speedup(base, run),
		})
	}
	return rows
}

// FprintModelTable renders the Eq. 3 comparison.
func FprintModelTable(w io.Writer, name string, rows []ModelRow) {
	fmt.Fprintf(w, "Equation 3 speedup model vs measured (L-shaped, %s)\n", name)
	fmt.Fprintf(w, "%4s %8s %8s %8s %8s\n", "p", "alpha", "gamma", "model", "meas")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %8.4f %8.4f %8.2f %8.2f\n", r.P, r.Alpha, r.Gamma, r.Model, r.Measured)
	}
}
