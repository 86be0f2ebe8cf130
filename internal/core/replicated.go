package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/fault"
	"repro/internal/kcm"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
	"repro/internal/vtime"
)

// Replicated runs the §3 parallel algorithm on p virtual processors:
// the circuit and the KC matrix are replicated in every worker; the
// nodes are conceptually partitioned to divide matrix generation;
// generated kernels are broadcast so all workers hold the same
// labeled matrix; the rectangle search tree is split by leftmost
// column; and after a barrier every worker redundantly divides its
// own circuit copy with the one global best rectangle. Quality
// matches the sequential algorithm (same search path); speedup is
// limited by the per-extraction barriers and the redundant division
// and merge work; memory grows with p (the paper's reason it cannot
// handle spla and ex1010).
//
// The lockstep replicas cannot continue short-handed: losing any
// worker (panic, or straggler past Options.BarrierDeadline) aborts
// the round coherently — surviving workers exit at the next barrier
// in agreement — and the run returns with RunResult.Failure set. The
// caller's network keeps every fully-applied extraction and stays
// function-equivalent to the input, so the service layer can retry
// or degrade to the sequential driver on it directly.
func Replicated(ctx context.Context, nw *network.Network, p int, opt Options) RunResult {
	mc := vtime.NewMachine(p, opt.model())
	mc.SetBarrierDeadline(opt.BarrierDeadline)
	start := time.Now()
	res := RunResult{Algorithm: "replicated", P: p}

	// Worker 0 operates on the caller's network; the rest hold
	// replicas with detached name tables. All copies evolve
	// identically, which is exactly the redundancy the paper
	// charges this algorithm for.
	nets := make([]*network.Network, p)
	nets[0] = nw
	for w := 1; w < p; w++ {
		nets[w] = nw.CloneDetached()
	}
	active := nw.NodeVars()

	// One incremental patcher shared by the whole run: replicas evolve
	// identically, so a proto kerneled from any worker's replica is
	// bit-identical to one kerneled from worker 0's network, and each
	// call re-kernels only the nodes the previous call's divisions
	// dirtied. Virtual time still charges the §3 model — only work
	// actually redone is charged to the generation phase, and every
	// worker still pays the full redundant merge.
	pat := kcm.NewPatcher(0, opt.Kernel)

	for {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		res.Calls++
		before := nw.NumNodes()
		dnf, cancelled, failure := replicatedCall(ctx, nets, active, opt, mc, pat)
		if failure != nil {
			res.Failure = failure
			break
		}
		if cancelled {
			res.Cancelled = true
			break
		}
		if dnf {
			res.DNF = true
			break
		}
		vars := nw.NodeVars()
		if len(vars) == before {
			break
		}
		res.Extracted += len(vars) - before
		active = append(active, vars[before:]...)
	}

	res.LC = nw.Literals()
	res.VirtualTime = mc.Elapsed()
	res.TotalWork = mc.TotalWork()
	res.Barriers = mc.Barriers()
	res.WallClock = time.Since(start)
	res.Build = pat.Stats()
	return res
}

// replicatedCall performs one lockstep factorization call across all
// workers and reports whether the work budget was exceeded, whether
// ctx was cancelled, and the worker failure (if any) that aborted the
// call.
//
// Cancellation must be observed identically by every worker or the
// lockstep barriers deadlock, so a worker never acts on ctx directly:
// any worker that sees ctx done raises the shared ctxDone flag before
// the round's decision barrier, and all workers read the flag only
// after that barrier. Flag writes happen-before the barrier release
// and no write can occur between that barrier and the round's final
// barrier, so every worker reads the same value each round.
//
// Worker loss follows the same publish-before-barrier discipline with
// the machine's abort flag: a panicking worker's Guard sink aborts
// the machine, every surviving worker's next Barrier returns false,
// and all of them unwind without touching their replicas again — no
// worker can be mid-division when another has already moved on.
func replicatedCall(ctx context.Context, nets []*network.Network, active []sop.Var, opt Options, mc *vtime.Machine, pat *kcm.Patcher) (bool, bool, error) {
	p := len(nets)
	bests := make([]rect.Rect, p)
	// The workers fill one batch each with the pending nodes' kernels,
	// the coordinator assembles the single shared matrix, and the
	// phase barrier publishes it.
	bs := pat.MakeBatches(p)
	pending := pat.Pending(active)
	var shared *kcm.Matrix
	dnf := false
	var ctxDone atomic.Bool
	cancelled := false
	var failMu sync.Mutex
	// failures is guarded by failMu.
	var failures []*WorkerFailure
	sink := func(f *WorkerFailure) {
		failMu.Lock()
		failures = append(failures, f)
		failMu.Unlock()
		// Publish the loss so no surviving worker blocks on a
		// barrier the dead one will never reach.
		mc.Abort(f.Error())
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		body := func(w int) {
			net := nets[w]

			// Phase 1: kernel this worker's round-robin share of the
			// nodes needing (re)generation; rows served from the
			// patcher's cache cost nothing. Replicas evolve
			// identically, so protos kerneled from any replica are
			// bit-identical.
			fault.Inject(fault.PointReplicatedMatrix)
			for i := w; i < len(pending); i += p {
				bs[w].Kernel(net, pending[i])
			}
			pairs, entries := bs[w].Counts()
			mc.ChargeKernelPairs(w, int(pairs))
			mc.ChargeMatrixEntries(w, int(entries))
			// Broadcast this worker's fresh kernels to every peer.
			mc.ChargeBroadcast(w, int(entries))
			if !mc.Barrier(w) {
				return
			}

			// Phase 2: one deterministic assemble, published to every
			// replica by the barrier. The coordinator pre-builds the
			// lazy dense index so the shared matrix is strictly
			// read-only during the cover.
			if w == 0 {
				pat.Commit(bs...)
				shared = pat.Assemble(active)
				shared.Index()
			}
			if !mc.Barrier(w) {
				return
			}
			merged := shared
			// Each replica still pays the full redundant merge cost
			// the §3 model charges the algorithm for.
			mc.ChargeMatrixEntries(w, merged.NumEntries())
			if !mc.Barrier(w) {
				return
			}

			// Phase 3: lockstep greedy cover. Each worker owns a
			// slice of root columns; the global best is reduced
			// after a barrier and applied by everyone.
			covered := rect.NewCover(merged)
			slices := rect.SplitColumns(merged, p)
			for {
				fault.Inject(fault.PointReplicatedSearch)
				cfg := opt.Rect
				cfg.Cover = covered
				cfg.LeftmostCols = slices[w]
				if len(slices[w]) == 0 {
					// Worker without columns still participates
					// in the barriers.
					cfg.LeftmostCols = []int64{-1}
				}
				best, stats := rect.Best(merged, cfg, nil)
				mc.ChargeSearchVisits(w, stats.Visits)
				bests[w] = best
				fault.Inject(fault.PointReplicatedBarrier)
				if !mc.Barrier(w) {
					return
				}
				// Deterministic reduction, recomputed identically
				// by every worker; clocks are level here, so the
				// budget decision is identical too.
				winner := bests[0]
				for j := 1; j < p; j++ {
					if rect.CompareRects(bests[j], winner) < 0 {
						winner = bests[j]
					}
				}
				overBudget := opt.WorkBudget > 0 && mc.Clock(w) > opt.WorkBudget
				if ctx.Err() != nil {
					ctxDone.Store(true)
				}
				if !mc.Barrier(w) {
					return
				}
				if ctxDone.Load() {
					if w == 0 {
						cancelled = true
					}
					return
				}
				if overBudget {
					if w == 0 {
						dnf = true
					}
					return
				}
				if winner.Rows == nil {
					return
				}
				// The winning rectangle is broadcast by its
				// finder.
				if len(winner.Rows) > 0 && sameRect(winner, bests[w]) {
					mc.ChargeBroadcast(w, len(winner.Rows)+len(winner.Cols))
				}
				fault.Inject(fault.PointReplicatedDivide)
				kernel := extract.KernelOf(merged, winner)
				_, dirty, touched, _ := extract.ApplyRect(net, merged, winner, kernel, covered)
				if w == 0 {
					// Every replica rewrites the same nodes; the
					// coordinator queues them for re-kerneling at
					// the next call's build.
					for _, dv := range dirty {
						pat.MarkDirty(dv)
					}
				}
				mc.ChargeDivisionCubes(w, touched)
				if !mc.Barrier(w) {
					return
				}
			}
		}
		go Guard("replicated", w, sink, func() {
			defer wg.Done()
			body(w)
		})
	}
	wg.Wait()

	var failure error
	failMu.Lock()
	if len(failures) > 0 {
		failure = failures[0]
	}
	failMu.Unlock()
	if failure == nil {
		if _, aborted := mc.Aborted(); aborted {
			// Deadline abort: some worker stalled without
			// panicking. Blame the first missing arrival.
			stuck := 0
			if m := mc.Missing(); len(m) > 0 {
				stuck = m[0]
			}
			failure = &WorkerFailure{Algorithm: "replicated", Worker: stuck, Cause: CauseStraggler}
		}
	}
	return dnf, cancelled, failure
}

func sameRect(a, b rect.Rect) bool {
	return rect.CompareRects(a, b) == 0
}
