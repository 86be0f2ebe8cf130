package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/extract"
	"repro/internal/kcm"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
	"repro/internal/service"
	"repro/internal/vtime"
)

// libraryRun is one factor-seq or factor-lshape-p2 run: a fixed
// circuit set factored in process, one call at a time.
type libraryRun struct {
	cfg    config
	lshape bool
	opt    core.Options
	set    []*network.Network
	initLC []int
}

// libCall is one timed factorization call.
type libCall struct {
	idx  int
	at   time.Time
	wall time.Duration
	cpu  time.Duration
	run  core.RunResult
}

// libPhase is the record of one timed loop over the set.
type libPhase struct {
	calls []libCall
	// finalLC holds the LC of each circuit's first completion.
	finalLC map[int]int
	// nets holds the factored network of each sampled circuit's first
	// completion, for the equivalence check.
	nets   map[int]*network.Network
	failed int
}

func (lr *libraryRun) call(ctx context.Context, nw *network.Network) core.RunResult {
	if lr.lshape {
		return core.LShaped(ctx, nw, 2, lr.opt)
	}
	return core.Sequential(ctx, nw, lr.opt)
}

// runLibrary runs factor-seq (lshape false) or factor-lshape-p2.
func runLibrary(ctx context.Context, cfg config, lshape bool) (*outcome, error) {
	out := newOutcome()
	lr := &libraryRun{cfg: cfg, lshape: lshape, opt: service.Spec{}.WithDefaults().CoreOptions()}

	// Set-up is circuit generation plus one warm-up call per family,
	// repeated so its median is steady.
	var setups []trip
	for r := 0; r < cfg.setups; r++ {
		out.cal.sample()
		t0 := time.Now()
		lr.set = librarySet(cfg.seed, cfg.perFamily)
		for i := range libraryFamilies {
			lr.call(ctx, lr.set[i].CloneDetached())
		}
		setups = append(setups, trip{at: t0, d: time.Since(t0)})
	}
	lr.initLC = make([]int, len(lr.set))
	texts := make([]string, len(lr.set))
	for i, nw := range lr.set {
		lr.initLC[i] = nw.Literals()
		texts[i] = blifText(nw)
	}
	out.notef("inputs: %d circuits, digest %s", len(lr.set), digest(texts))

	untracedFor := cfg.seconds
	if cfg.trace {
		untracedFor = cfg.seconds / 2
	}
	ph, err := lr.phase(ctx, untracedFor, &out.cal)
	if err != nil {
		return nil, err
	}
	out.cal.sample()
	out.attempted += len(ph.calls)
	out.failed += ph.failed
	out.setSetup(nil, setups)
	lr.report(ph, out)
	out.failed += lr.checkEquiv(ph, out)
	if cfg.trace {
		if lr.lshape {
			err = lr.tracedLShaped(ctx, cfg.seconds-untracedFor, out)
		} else {
			err = lr.tracedSequential(ctx, cfg.seconds-untracedFor, out)
		}
		if err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mb"] = rss
	return out, nil
}

// phase factors the set in order, round robin, until d has passed,
// timing the calibration kernel between calls once cal is due.
func (lr *libraryRun) phase(ctx context.Context, d time.Duration, cal *calibrator) (*libPhase, error) {
	ph := &libPhase{finalLC: map[int]int{}, nets: map[int]*network.Network{}}
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := i % len(lr.set)
		nw := lr.set[idx].CloneDetached()
		if cal.due() {
			cal.sample()
		}
		c0, t0 := cpuTime(), time.Now()
		run := lr.call(ctx, nw)
		wall := time.Since(t0)
		ph.calls = append(ph.calls, libCall{idx: idx, at: t0, wall: wall, cpu: cpuTime() - c0, run: run})
		if !completed(run) {
			ph.failed++
			continue
		}
		lc, seen := ph.finalLC[idx]
		switch {
		case !seen:
			ph.finalLC[idx] = run.LC
			if sampled(lr.cfg.seed, idx, 10) {
				ph.nets[idx] = nw
			}
		case lc != run.LC && !lr.lshape:
			// The sequential driver is deterministic: a repeat call
			// on the same circuit must reach the same LC. (L-shaped
			// claims race, so its LC may differ slightly.)
			ph.failed++
		}
	}
	return ph, nil
}

// report derives the end-to-end metrics of an untraced phase.
func (lr *libraryRun) report(ph *libPhase, out *outcome) {
	trips := make([]trip, len(ph.calls))
	var busy, cpu time.Duration
	for i, c := range ph.calls {
		trips[i] = trip{at: c.at, d: c.wall, latency: c.wall, ok: completed(c.run)}
		busy += c.wall
		cpu += c.cpu
	}
	out.setLoad(trips)
	var initLC, finalLC int
	for idx, lc := range ph.finalLC {
		initLC += lr.initLC[idx]
		finalLC += lc
	}
	out.values["lc_ratio"] = ratio(float64(finalLC), float64(initLC))
	out.values["core.cpu_per_wall"] = cpu.Seconds() / busy.Seconds()

	idxs := make([]int, 0, len(ph.finalLC))
	for idx := range ph.finalLC {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	lcs := make([]string, len(idxs))
	for i, idx := range idxs {
		lcs[i] = fmt.Sprint(idx, ":", ph.finalLC[idx])
	}
	out.notef("p50 and p90 over %d calls on %d distinct circuits; final LC digest %s",
		len(ph.calls), len(idxs), digest(lcs))
}

// checkEquiv simulates every sampled factored circuit against its
// input and returns the number that differ.
func (lr *libraryRun) checkEquiv(ph *libPhase, out *outcome) int {
	bad := 0
	for idx, nw := range ph.nets {
		// 128 random vectors instead of the checker's default 2048:
		// these circuits have 48 to 132 inputs, so every check samples,
		// and the default costs up to 3 s per des circuit.
		if err := equiv.CheckSelf(lr.set[idx], nw, equiv.Options{Seed: lr.cfg.seed, RandomVectors: 128}); err != nil {
			out.notef("circuit %d: %v", idx, err)
			bad++
		}
	}
	out.notef("equivalence checked on %d sampled circuits, %d mismatched", len(ph.nets), bad)
	return bad
}

// seqCounters are the per-layer counts of the traced sequential loop.
type seqCounters struct {
	calls, bestK, rects, accepted, visits, divisionCubes int
	build                                                kcm.BuildStats
}

// traceRepeat repeats extract.Repeat's loop (and KernelExtract's body)
// from the layers' public calls, with a span around each call. Its
// output must stay byte-identical to core.Sequential's.
func traceRepeat(ctx context.Context, nw *network.Network, opt core.Options, rec *Recorder, root, op int, c *seqCounters) {
	pat := kcm.NewPatcher(0, opt.Kernel)
	workers := runtime.GOMAXPROCS(0)
	k := max(opt.BatchK, 1)
	active := nw.NodeVars()
	for ctx.Err() == nil {
		c.calls++
		before := nw.NumNodes()
		call := rec.Begin(root, op, "extract.call")
		sp := rec.Begin(call, op, "kcm.rebuild")
		stats0 := pat.Stats()
		m := pat.Rebuild(ctx, nw, active, workers)
		rec.End(sp)
		c.build.Add(pat.Stats().Sub(stats0))
		covered := rect.NewCover(m)
		cfg := opt.Rect
		cfg.Cover = covered
		extracted := 0
		for ctx.Err() == nil {
			sp = rec.Begin(call, op, "rect.bestk")
			batch, st := rect.BestK(m, cfg, nil, k)
			rec.End(sp)
			c.bestK++
			c.visits += st.Visits
			c.rects += len(batch)
			if len(batch) == 0 {
				break
			}
			for _, best := range batch {
				sp = rec.Begin(call, op, "extract.apply")
				kernel := extract.KernelOf(m, best)
				_, dirty, touched, changed := extract.ApplyRect(nw, m, best, kernel, covered)
				rec.End(sp)
				sp = rec.Begin(call, op, "kcm.markdirty")
				for _, dv := range dirty {
					pat.MarkDirty(dv)
				}
				rec.End(sp)
				c.divisionCubes += touched
				if changed {
					extracted++
					c.accepted++
				}
			}
		}
		rec.End(call)
		if extracted == 0 {
			return
		}
		active = append(active, nw.NodeVars()[before:]...)
	}
}

// tracedSequential is factor-seq's traced pass. Each circuit is
// factored twice back to back, by core.Sequential and by the rebuilt
// loop with spans: the first call's BLIF is the reference the second
// must match, and the pair's times give the tracing overhead free of
// host drift.
func (lr *libraryRun) tracedSequential(ctx context.Context, d time.Duration, out *outcome) error {
	rec := NewRecorder()
	first := len(out.cal.ns)
	var c seqCounters
	var plain, traced time.Duration
	n := 0
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx := i % len(lr.set)
		ref, nw := lr.set[idx].CloneDetached(), lr.set[idx].CloneDetached()
		if out.cal.due() {
			out.cal.sample()
		}
		t0 := time.Now()
		core.Sequential(ctx, ref, lr.opt)
		t1 := time.Now()
		root := rec.Begin(0, i, "factor")
		traceRepeat(ctx, nw, lr.opt, rec, root, i, &c)
		rec.End(root)
		plain += t1.Sub(t0)
		traced += time.Since(t1)
		n++
		out.attempted++
		if blifText(nw) != blifText(ref) {
			out.notef("circuit %d: traced loop output differs from core.Sequential", idx)
			out.failed++
		}
	}
	if err := writeSpanFile(lr.cfg, rec); err != nil {
		return err
	}

	out.cal.sample()
	scale := out.cal.since(first).scale()
	tot := totalsByName(rec.Spans())
	callNS := float64(tot.durNS["factor"]) * scale
	rectNS := float64(tot.selfNS["rect.bestk"]) * scale
	kcmNS := float64(tot.selfNS["kcm.rebuild"]+tot.selfNS["kcm.markdirty"]) * scale
	applyNS := float64(tot.selfNS["extract.apply"]) * scale
	nf := float64(n)
	model := vtime.DefaultModel()
	v := out.values
	v["rect.bestk_self_ms"] = rectNS / nf / 1e6
	v["rect.bestk_share"] = rectNS / callNS
	v["rect.bestk_calls"] = float64(c.bestK) / nf
	v["rect.visits"] = float64(c.visits) / nf
	v["rect.rects_per_call"] = ratio(float64(c.rects), float64(c.bestK))
	v["rect.accept_ratio"] = ratio(float64(c.accepted), float64(c.rects))
	v["kcm.rebuild_self_ms"] = kcmNS / nf / 1e6
	v["kcm.rebuild_share"] = kcmNS / callNS
	buildLayers(c.build, nf, v)
	v["extract.apply_self_ms"] = applyNS / nf / 1e6
	v["extract.apply_share"] = applyNS / callNS
	v["extract.division_cubes"] = float64(c.divisionCubes) / nf
	v["extract.calls_per_circuit"] = float64(c.calls) / nf
	v["vtime.ns_per_unit.build"] = ratio(kcmNS, float64(model.KernelPair*c.build.PairsKerneled+model.MatrixEntry*c.build.EntriesBuilt))
	v["vtime.ns_per_unit.search"] = ratio(rectNS, float64(model.SearchVisit*int64(c.visits)))
	v["vtime.ns_per_unit.divide"] = ratio(applyNS, float64(model.DivisionCube*int64(c.divisionCubes)))
	v["trace.overhead_frac"] = ratio(traced.Seconds(), plain.Seconds()) - 1
	out.notef("traced %d circuits: rect+kcm+extract self time covers %.1f%% of call time",
		n, 100*(rectNS+kcmNS+applyNS)/callNS)
	return nil
}

// tracedLShaped is factor-lshape-p2's traced pass: per circuit, a
// separately timed partition.KWay, the core.Sequential baseline the
// speedups divide, and core.LShaped twice back to back, without and
// with its span, for the tracing overhead.
func (lr *libraryRun) tracedLShaped(ctx context.Context, d time.Duration, out *outcome) error {
	rec := NewRecorder()
	first := len(out.cal.ns)
	var build kcm.BuildStats
	var barriers, recovered, calls, seqVT, lsVT, seqWork, lsWork int64
	var plain, traced time.Duration
	n := 0
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx := i % len(lr.set)
		if out.cal.due() {
			out.cal.sample()
		}
		sp := rec.Begin(0, i, "partition.kway")
		partition.KWay(lr.set[idx], nil, 2, lr.opt.Partition)
		rec.End(sp)

		sp = rec.Begin(0, i, "core.sequential")
		seq := core.Sequential(ctx, lr.set[idx].CloneDetached(), lr.opt)
		rec.End(sp)

		t0 := time.Now()
		core.LShaped(ctx, lr.set[idx].CloneDetached(), 2, lr.opt)
		t1 := time.Now()
		sp = rec.Begin(0, i, "core.lshaped")
		run := core.LShaped(ctx, lr.set[idx].CloneDetached(), 2, lr.opt)
		rec.End(sp)
		plain += t1.Sub(t0)
		traced += time.Since(t1)
		n++
		out.attempted++
		if !completed(run) || !completed(seq) {
			out.failed++
			continue
		}
		build.Add(run.Build)
		barriers += run.Barriers
		recovered += int64(run.Recovered)
		calls += int64(run.Calls)
		seqVT += seq.VirtualTime
		lsVT += run.VirtualTime
		seqWork += seq.TotalWork
		lsWork += run.TotalWork
	}
	if err := writeSpanFile(lr.cfg, rec); err != nil {
		return err
	}

	out.cal.sample()
	scale := out.cal.since(first).scale()
	tot := totalsByName(rec.Spans())
	nf := float64(n)
	v := out.values
	v["partition.kway_ms"] = float64(tot.durNS["partition.kway"]) * scale / nf / 1e6
	v["core.barriers"] = float64(barriers) / nf
	v["core.recovered"] = float64(recovered)
	v["core.wall_speedup_p2"] = ratio(float64(tot.durNS["core.sequential"]), float64(tot.durNS["core.lshaped"]))
	v["vtime.speedup"] = ratio(float64(seqVT), float64(lsVT))
	v["vtime.work_inflation"] = ratio(float64(lsWork), float64(seqWork))
	v["kcm.rebuild_self_ms"] = float64(build.BuildNS) * scale / nf / 1e6
	v["kcm.rebuild_share"] = ratio(float64(build.BuildNS), float64(tot.durNS["core.lshaped"]))
	buildLayers(build, nf, v)
	v["extract.calls_per_circuit"] = float64(calls) / nf
	v["trace.overhead_frac"] = ratio(traced.Seconds(), plain.Seconds()) - 1
	out.notef("traced %d circuits", n)
	return nil
}

// buildLayers reports the matrix-build counters per circuit.
func buildLayers(b kcm.BuildStats, n float64, v map[string]float64) {
	v["kcm.nodes_kerneled"] = float64(b.NodesKerneled) / n
	v["kcm.nodes_reused"] = float64(b.NodesReused) / n
	v["kcm.reuse_ratio"] = ratio(float64(b.NodesReused), float64(b.NodesReused+b.NodesKerneled))
	v["kernels.pairs_kerneled"] = float64(b.PairsKerneled) / n
}

// completed reports whether a run finished its factorization.
func completed(run core.RunResult) bool {
	return !run.Cancelled && run.Failure == nil && !run.DNF
}
