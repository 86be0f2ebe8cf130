//go:build faultinject

package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/equiv"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rect"
)

// The chaos lane's driver-level contract: a fault injected at any
// named point leaves the network function-equivalent to the input,
// never deadlocks the run, and is either absorbed in-driver
// (Recovered > 0, Failure nil) or surfaced as a structured failure
// for the service ladder (Failure != nil).

// runChaos runs fn with a watchdog so an injection that deadlocks a
// barrier fails the test instead of hanging the lane.
func runChaos(t *testing.T, fn func() RunResult) RunResult {
	t.Helper()
	done := make(chan RunResult, 1)
	go func() { done <- fn() }()
	select {
	case res := <-done:
		return res
	case <-time.After(30 * time.Second):
		t.Fatal("driver deadlocked under injected fault")
		return RunResult{}
	}
}

func panicPlan(point string, after int) fault.Plan {
	return fault.Plan{Points: map[string]fault.PointConfig{
		point: {Mode: fault.ModePanic, After: after, Count: 1},
	}}
}

func TestReplicatedPanicAtEveryPoint(t *testing.T) {
	// The matrix comes from the generated registry, not a hand list:
	// adding a replicated-driver point (and regenerating with
	// `repolint -write-faultpoints`) widens this test automatically.
	points := fault.RegistryWithPrefix("core.replicated.")
	if len(points) == 0 {
		t.Fatal("registry lists no core.replicated. points")
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer fault.Reset()
			fault.Set(panicPlan(point, 2))
			nw := network.PaperExample()
			ref := nw.Clone()
			res := runChaos(t, func() RunResult {
				return Replicated(context.Background(), nw, 4, Options{})
			})
			if fault.Fired(point) != 1 {
				t.Fatalf("point %s fired %d times", point, fault.Fired(point))
			}
			if res.Failure == nil {
				t.Fatal("lockstep replicas cannot absorb a lost worker; want Failure")
			}
			var wf *WorkerFailure
			if !errors.As(res.Failure, &wf) || wf.Cause != CausePanic {
				t.Fatalf("Failure = %v, want a panic WorkerFailure", res.Failure)
			}
			if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
				t.Fatalf("network diverged after recovered panic: %v", err)
			}
		})
	}
}

func TestReplicatedStragglerAbortsInsteadOfDeadlock(t *testing.T) {
	defer fault.Reset()
	fault.Set(fault.Plan{Points: map[string]fault.PointConfig{
		fault.PointReplicatedBarrier: {Mode: fault.ModeDelay, Count: 1, Delay: 700 * time.Millisecond},
	}})
	nw := network.PaperExample()
	ref := nw.Clone()
	res := runChaos(t, func() RunResult {
		return Replicated(context.Background(), nw, 4, Options{BarrierDeadline: 100 * time.Millisecond})
	})
	var wf *WorkerFailure
	if !errors.As(res.Failure, &wf) || wf.Cause != CauseStraggler {
		t.Fatalf("Failure = %v, want a straggler WorkerFailure", res.Failure)
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatalf("network diverged after straggler abort: %v", err)
	}
}

func TestPartitionedRequeuesLostPartition(t *testing.T) {
	// Baseline without faults, for the determinism cross-check: a
	// retried partition redoes identical work, so the factored
	// result must match the undisturbed run exactly.
	base := network.PaperExample()
	baseRes := Partitioned(context.Background(), base, 4, Options{})

	defer fault.Reset()
	fault.Set(panicPlan(fault.PointPartitionedExtract, 2))
	nw := network.PaperExample()
	ref := nw.Clone()
	res := runChaos(t, func() RunResult {
		return Partitioned(context.Background(), nw, 4, Options{})
	})
	if res.Failure != nil {
		t.Fatalf("requeue should absorb one panic; got Failure %v", res.Failure)
	}
	if res.Recovered < 1 {
		t.Fatalf("Recovered = %d, want >= 1", res.Recovered)
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatalf("network diverged after requeue: %v", err)
	}
	if res.LC != baseRes.LC || res.Extracted != baseRes.Extracted {
		t.Fatalf("recovered run (LC %d, extracted %d) differs from fault-free run (LC %d, extracted %d)",
			res.LC, res.Extracted, baseRes.LC, baseRes.Extracted)
	}
}

func TestPartitionedGivesUpPartitionAfterMaxAttempts(t *testing.T) {
	defer fault.Reset()
	// Every extract attempt dies, forever: each partition burns its
	// whole retry budget and the run must give up rather than loop.
	fault.Set(fault.Plan{Points: map[string]fault.PointConfig{
		fault.PointPartitionedExtract: {Mode: fault.ModePanic, After: 1, Count: 1 << 20},
	}})
	nw := network.PaperExample()
	ref := nw.Clone()
	res := runChaos(t, func() RunResult {
		return Partitioned(context.Background(), nw, 4, Options{})
	})
	if res.Failure == nil {
		t.Fatal("an exhausted partition must surface as Failure")
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatalf("network diverged after giving a partition up: %v", err)
	}
}

func TestPartitionedMergePanicStaysEquivalent(t *testing.T) {
	defer fault.Reset()
	fault.Set(panicPlan(fault.PointPartitionedMerge, 2))
	nw := network.PaperExample()
	ref := nw.Clone()
	res := runChaos(t, func() RunResult {
		return Partitioned(context.Background(), nw, 4, Options{})
	})
	if res.Failure == nil {
		t.Fatal("a lost merge must surface as Failure")
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatalf("network diverged after merge panic: %v", err)
	}
}

func TestLShapedRecoversAtEveryPoint(t *testing.T) {
	points := fault.RegistryWithPrefix("core.lshaped.")
	if len(points) == 0 {
		t.Fatal("registry lists no core.lshaped. points")
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer fault.Reset()
			fault.Set(panicPlan(point, 1))
			nw := network.PaperExample()
			ref := nw.Clone()
			res := runChaos(t, func() RunResult {
				return LShaped(context.Background(), nw, 4, Options{})
			})
			if fault.Fired(point) != 1 {
				t.Fatalf("point %s fired %d times", point, fault.Fired(point))
			}
			if res.Failure != nil {
				t.Fatalf("survivors should absorb one lost worker; got Failure %v", res.Failure)
			}
			if res.Recovered < 1 {
				t.Fatalf("Recovered = %d, want >= 1", res.Recovered)
			}
			if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
				t.Fatalf("network diverged after recovery: %v", err)
			}
		})
	}
}

func TestLShapedStragglerRedistributesPartitions(t *testing.T) {
	defer fault.Reset()
	fault.Set(fault.Plan{Points: map[string]fault.PointConfig{
		fault.PointLShapedCover: {Mode: fault.ModeDelay, Count: 1, Delay: 600 * time.Millisecond},
	}})
	nw := network.PaperExample()
	ref := nw.Clone()
	res := runChaos(t, func() RunResult {
		return LShaped(context.Background(), nw, 4, Options{BarrierDeadline: 120 * time.Millisecond})
	})
	if res.Failure != nil {
		t.Fatalf("survivors should absorb one straggler; got Failure %v", res.Failure)
	}
	if res.Recovered < 1 {
		t.Fatalf("Recovered = %d, want >= 1", res.Recovered)
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatalf("network diverged after straggler recovery: %v", err)
	}
}

func TestLShapedAllWorkersLostFailsCleanly(t *testing.T) {
	defer fault.Reset()
	// Panic every cover entry, forever: every round loses workers
	// until the retry budget is spent or nobody survives.
	fault.Set(fault.Plan{Points: map[string]fault.PointConfig{
		fault.PointLShapedMatrix: {Mode: fault.ModePanic, After: 1, Count: 1 << 20},
	}})
	nw := network.PaperExample()
	ref := nw.Clone()
	res := runChaos(t, func() RunResult {
		return LShaped(context.Background(), nw, 3, Options{})
	})
	if res.Failure == nil {
		t.Fatal("losing every worker must surface as Failure")
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatalf("network diverged after total loss: %v", err)
	}
}

// TestSequentialFanoutPanicReachesGuard injects a panic, midway through
// a sequential run's hits, into each fan-out the run makes: the
// kerneling workers of the matrix build and the presearch workers of
// the rectangle search. The panic must come out of a Guard around
// Sequential as a WorkerFailure instead of killing the process, and
// the network must stay function-equivalent to its input.
func TestSequentialFanoutPanicReachesGuard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	src, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Rect: rect.Config{MaxCols: 5, MaxVisits: 100000}, BatchK: 16}
	for _, point := range []string{fault.PointKCMRebuild, fault.PointRectPresearch} {
		t.Run(point, func(t *testing.T) {
			defer fault.Reset()
			// Count the point's hits in a clean run: a delay-mode
			// point that never triggers still counts them.
			fault.Set(fault.Plan{Points: map[string]fault.PointConfig{
				point: {Mode: fault.ModeDelay, After: 1 << 30},
			}})
			Sequential(context.Background(), src.Clone(), opt)
			hits := fault.Hits(point)
			if hits < 2 {
				t.Fatalf("point %s hit %d times in a clean run, want >= 2", point, hits)
			}
			fault.Set(panicPlan(point, hits/2))
			nw := src.Clone()
			var wf *WorkerFailure
			runChaos(t, func() RunResult {
				Guard("sequential", 0, func(f *WorkerFailure) { wf = f }, func() {
					Sequential(context.Background(), nw, opt)
				})
				return RunResult{}
			})
			if fault.Fired(point) != 1 {
				t.Fatalf("point %s fired %d times", point, fault.Fired(point))
			}
			if wf == nil || wf.Cause != CausePanic {
				t.Fatalf("Guard reported %v, want a panic WorkerFailure", wf)
			}
			if inj, ok := wf.Panic.(fault.Injected); !ok || inj.Point != point {
				t.Fatalf("WorkerFailure.Panic = %v, want the fault injected at %s", wf.Panic, point)
			}
			if err := equiv.Check(src, nw, equiv.Options{}); err != nil {
				t.Fatalf("network diverged after the panic: %v", err)
			}
		})
	}
}
