// Package vtime models a p-processor shared-memory multiprocessor
// with per-worker virtual clocks, so the paper's speedup experiments
// can be reproduced deterministically on a host with any number of
// physical cores. The reference host has 2 vCPUs, so real wall-clock
// speedup is observable only up to p=2 (the end-to-end benchmark
// reports it as core.wall_speedup_p2); the paper's 4- and 6-processor
// speedups exist here only in virtual time (see DESIGN.md's
// substitution table).
//
// Workers (goroutines) charge their own clock for the work they do —
// kernels generated, rectangle search nodes visited, cubes divided —
// and synchronization points advance clocks the way the modeled
// machine would: a barrier advances every participant to the maximum,
// a broadcast charges the sender per recipient and the recipients per
// word received, and a critical section serializes on a modeled lock.
// Speedup is then V(sequential)/V(parallel) on identical inputs,
// which measures exactly the algorithmic quantities the paper's
// wall-clock numbers measured: work division, redundant work, and
// synchronization losses.
package vtime

import (
	"sync"
	"sync/atomic"
	"time"
)

// Model holds the per-operation cost constants in abstract time
// units. One unit is roughly one cheap inner-loop step (a matrix
// entry touched, a search-tree node expanded); generating a kernel
// pair costs several such steps. Communication constants model a
// mid-90s bus-based shared-memory machine (cf. SPARCserver 1000E):
// moving a word between processors costs about one local step, and a
// barrier costs a few hundred steps of overhead per participant on
// top of waiting for the slowest.
type Model struct {
	// KernelPair is the cost per (kernel, co-kernel) pair generated.
	KernelPair int64
	// MatrixEntry is the cost per KC-matrix entry built.
	MatrixEntry int64
	// SearchVisit is the cost per rectangle search-tree node.
	SearchVisit int64
	// DivisionCube is the cost per function cube touched during
	// network division.
	DivisionCube int64
	// BroadcastWord is the per-word cost of inter-processor data
	// movement (matrix rows, kernel lists, rectangles).
	BroadcastWord int64
	// Barrier is the fixed overhead every participant pays per
	// barrier, beyond waiting for the slowest.
	Barrier int64
	// Lock is the cost of one acquire/release of a shared lock.
	Lock int64
}

// DefaultModel returns the calibrated cost constants used by the
// experiment harness.
func DefaultModel() Model {
	return Model{
		KernelPair:    8,
		MatrixEntry:   1,
		SearchVisit:   1,
		DivisionCube:  2,
		BroadcastWord: 1,
		Barrier:       400,
		Lock:          8,
	}
}

// Machine is a virtual p-processor machine. Worker methods are safe
// for concurrent use by the owning worker; coordinator methods
// (Barrier, Elapsed) must be called when workers are quiescent or via
// the built-in synchronization.
type Machine struct {
	model  Model
	clocks []int64 // accessed atomically

	barMu sync.Mutex
	// barCount is guarded by barMu.
	barCount int
	// barGen is guarded by barMu.
	barGen  int
	barCond *sync.Cond
	// barriers is guarded by barMu.
	barriers int64
	// participants is guarded by barMu: how many workers each
	// barrier waits for. Starts at p; a driver that loses workers
	// shrinks it so the survivors' barriers still release.
	participants int
	// aborted is guarded by barMu. Once set, every Barrier (waiting
	// or future) returns false until ClearAbort.
	aborted bool
	// abortReason is guarded by barMu.
	abortReason string
	// missing is guarded by barMu: the workers that had not arrived
	// when a deadline abort fired.
	missing []int
	// arrived is guarded by barMu: who has reached the current
	// barrier generation.
	arrived map[int]bool
	// barDeadline is guarded by barMu; 0 disables the straggler
	// detector.
	barDeadline time.Duration
	// barTimer is guarded by barMu: the current generation's
	// straggler timer, armed by the first waiter.
	barTimer *time.Timer
}

// NewMachine returns a machine with p worker clocks at 0.
func NewMachine(p int, m Model) *Machine {
	mc := &Machine{model: m, clocks: make([]int64, p), participants: p, arrived: map[int]bool{}}
	mc.barCond = sync.NewCond(&mc.barMu)
	return mc
}

// Charge adds n abstract time units to worker w's clock.
func (mc *Machine) Charge(w int, n int64) {
	atomic.AddInt64(&mc.clocks[w], n)
}

// ChargeKernelPairs charges w for generating n kernel pairs.
func (mc *Machine) ChargeKernelPairs(w, n int) {
	mc.Charge(w, int64(n)*mc.model.KernelPair)
}

// ChargeMatrixEntries charges w for building n matrix entries.
func (mc *Machine) ChargeMatrixEntries(w, n int) {
	mc.Charge(w, int64(n)*mc.model.MatrixEntry)
}

// ChargeSearchVisits charges w for expanding n search-tree nodes.
func (mc *Machine) ChargeSearchVisits(w, n int) {
	mc.Charge(w, int64(n)*mc.model.SearchVisit)
}

// ChargeDivisionCubes charges w for touching n cubes during division.
func (mc *Machine) ChargeDivisionCubes(w, n int) {
	mc.Charge(w, int64(n)*mc.model.DivisionCube)
}

// ChargeBroadcast charges sender w for shipping words to each of the
// other p-1 processors, and every receiver for reading them. Used
// for the replicated algorithm's kernel broadcast and the L-shaped
// algorithm's sub-matrix exchange.
func (mc *Machine) ChargeBroadcast(w int, words int) {
	p := int64(len(mc.clocks))
	if p <= 1 {
		return
	}
	cost := int64(words) * mc.model.BroadcastWord
	for i := range mc.clocks {
		if i == w {
			mc.Charge(i, cost*(p-1)) // sender pays per recipient
		} else {
			mc.Charge(i, cost)
		}
	}
}

// ChargeSend charges a point-to-point transfer of words from w to to.
func (mc *Machine) ChargeSend(w, to, words int) {
	cost := int64(words) * mc.model.BroadcastWord
	mc.Charge(w, cost)
	if to != w {
		mc.Charge(to, cost)
	}
}

// ChargeLock charges worker w one lock acquire/release.
func (mc *Machine) ChargeLock(w int) {
	mc.Charge(w, mc.model.Lock)
}

// SetParticipants shrinks (or restores) the number of workers each
// barrier waits for. Drivers normally call it between rounds (after
// wg.Wait), but shrinking below the number of workers already blocked
// at the current barrier is also safe: the barrier that became
// satisfied by the lower count releases immediately, instead of
// waiting for arrivals that will never come.
func (mc *Machine) SetParticipants(n int) {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	if n < 1 {
		n = 1
	}
	if n > len(mc.clocks) {
		n = len(mc.clocks)
	}
	mc.participants = n
	if !mc.aborted && mc.barCount >= mc.participants && mc.barCount > 0 {
		mc.releaseLocked()
	}
}

// SetBarrierDeadline arms the straggler detector: if a barrier's
// first waiter has been blocked for d without the barrier releasing,
// the machine aborts — every waiter (and every later arrival, such as
// the straggler itself) gets false from Barrier, so the surviving
// workers exit the round in agreement instead of deadlocking. 0
// disables detection.
func (mc *Machine) SetBarrierDeadline(d time.Duration) {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	mc.barDeadline = d
}

// Abort publishes a failure to every barrier: current waiters wake
// with false, and future arrivals return false immediately, until
// ClearAbort. Guard sinks call it when a worker goroutine panics so
// its peers cannot block forever on a barrier the dead worker will
// never reach.
func (mc *Machine) Abort(reason string) {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	mc.abortLocked(reason, nil)
}

//repolint:requires barMu
func (mc *Machine) abortLocked(reason string, missing []int) {
	if mc.aborted {
		return
	}
	mc.aborted = true
	mc.abortReason = reason
	mc.missing = missing
	if mc.barTimer != nil {
		mc.barTimer.Stop()
		mc.barTimer = nil
	}
	mc.barCond.Broadcast()
}

// Aborted reports whether the machine's barriers are aborted, and
// why.
func (mc *Machine) Aborted() (string, bool) {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	return mc.abortReason, mc.aborted
}

// Missing returns the workers that had not arrived when a deadline
// abort fired — the stragglers a driver should requeue around. It is
// nil for panic-initiated aborts (the Guard sink knows the worker).
func (mc *Machine) Missing() []int {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	out := make([]int, len(mc.missing))
	copy(out, mc.missing)
	return out
}

// ClearAbort re-arms the machine for another round: the abort flag,
// arrival tracking and any pending straggler timer are reset. Call
// only after every worker goroutine of the aborted round has exited
// (wg.Wait), or a late straggler could join the new round's barrier.
func (mc *Machine) ClearAbort() {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	mc.aborted = false
	mc.abortReason = ""
	mc.missing = nil
	mc.barCount = 0
	mc.barGen++
	mc.arrived = map[int]bool{}
	if mc.barTimer != nil {
		mc.barTimer.Stop()
		mc.barTimer = nil
	}
}

// Barrier blocks until all participants have arrived, then advances
// every participating clock to the maximum plus the barrier overhead
// and reports true. It is the modeled and actual synchronization
// point of the replicated algorithm's per-extraction lockstep.
//
// It reports false when the machine aborts — a peer panicked
// (Abort) or stalled past the barrier deadline — in which case clocks
// are left as they are and the caller must unwind its round.
func (mc *Machine) Barrier(w int) bool {
	mc.barMu.Lock()
	if mc.aborted {
		mc.barMu.Unlock()
		return false
	}
	gen := mc.barGen
	mc.barCount++
	mc.arrived[w] = true
	if mc.barCount >= mc.participants {
		mc.releaseLocked()
		mc.barMu.Unlock()
		return true
	}
	if mc.barDeadline > 0 && mc.barTimer == nil {
		//repolint:allow lockdiscipline -- deadlineAbort runs later on the timer's own goroutine, never under this Barrier's barMu hold
		mc.barTimer = time.AfterFunc(mc.barDeadline, func() { mc.deadlineAbort(gen) })
	}
	for gen == mc.barGen && !mc.aborted {
		mc.barCond.Wait()
	}
	ok := gen != mc.barGen
	mc.barMu.Unlock()
	return ok
}

// releaseLocked completes the current barrier: participating clocks
// level to max + overhead, the generation advances, and every waiter
// wakes. Called by the satisfying arrival, or by SetParticipants when
// shrinking the count satisfies a barrier already in progress.
//
//repolint:requires barMu
func (mc *Machine) releaseLocked() {
	if mc.barTimer != nil {
		mc.barTimer.Stop()
		mc.barTimer = nil
	}
	max := int64(0)
	for i := 0; i < mc.participants; i++ {
		if c := atomic.LoadInt64(&mc.clocks[i]); c > max {
			max = c
		}
	}
	for i := 0; i < mc.participants; i++ {
		atomic.StoreInt64(&mc.clocks[i], max+mc.model.Barrier)
	}
	mc.barriers++
	mc.barCount = 0
	mc.barGen++
	mc.arrived = map[int]bool{}
	mc.barCond.Broadcast()
}

// deadlineAbort fires when a barrier generation outlived the
// straggler deadline: it records which workers never arrived and
// aborts. A release that raced the timer (gen already advanced) is a
// no-op.
func (mc *Machine) deadlineAbort(gen int) {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	if gen != mc.barGen || mc.aborted || mc.barCount == 0 {
		return
	}
	var missing []int
	for i := 0; i < mc.participants; i++ {
		if !mc.arrived[i] {
			missing = append(missing, i)
		}
	}
	mc.barTimer = nil
	mc.abortLocked("barrier deadline exceeded waiting for stragglers", missing)
}

// Barriers returns how many barriers completed.
func (mc *Machine) Barriers() int64 {
	mc.barMu.Lock()
	defer mc.barMu.Unlock()
	return mc.barriers
}

// Clock returns worker w's current virtual time.
func (mc *Machine) Clock(w int) int64 {
	return atomic.LoadInt64(&mc.clocks[w])
}

// Elapsed returns the machine's virtual makespan: the maximum clock.
func (mc *Machine) Elapsed() int64 {
	max := int64(0)
	for i := range mc.clocks {
		if c := atomic.LoadInt64(&mc.clocks[i]); c > max {
			max = c
		}
	}
	return max
}

// TotalWork returns the sum of all clocks — the modeled aggregate
// computation, used to report redundant work.
func (mc *Machine) TotalWork() int64 {
	t := int64(0)
	for i := range mc.clocks {
		t += atomic.LoadInt64(&mc.clocks[i])
	}
	return t
}
