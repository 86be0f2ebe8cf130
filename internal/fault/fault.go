// Package fault is a deterministic, seed-driven fault-injection
// framework for chaos-testing the parallel drivers and the serving
// layer. Code under test calls Inject/InjectErr at named injection
// points; a test (or the FAULT_PLAN environment variable, for
// cmd/factord) installs a Plan mapping point names to triggers that
// panic, sleep, or return a spurious error on deterministically
// chosen hits.
//
// The runtime is compiled in only under the "faultinject" build tag
// (the CI chaos lane runs `go test -race -tags faultinject ./...`).
// In a default build every function in this package is an empty stub
// and Enabled is a constant false, so injection points in hot paths
// cost nothing — the same compile-out discipline as
// internal/analysis/invariant.
//
// Triggers are deterministic by construction: each point keeps a hit
// counter (guarded by one global mutex, which also serializes the
// seeded RNG), and a trigger fires on hits in [After, After+Count)
// unless a probability is set, in which case the seeded RNG decides
// each eligible hit. Identical plans on identical hit sequences fire
// identically.
package fault

import (
	"strings"
	"time"
)

// Mode selects what an injection point does when it triggers.
type Mode string

const (
	// ModePanic makes Inject/InjectErr panic with an Injected value.
	ModePanic Mode = "panic"
	// ModeDelay makes Inject/InjectErr sleep for PointConfig.Delay —
	// the straggler fault the barrier deadline detector exists for.
	ModeDelay Mode = "delay"
	// ModeError makes InjectErr return an *Injected error (Inject
	// ignores error-mode points; a point that can only panic or
	// stall has no error channel to report through).
	ModeError Mode = "error"
	// ModeTorn makes InjectWrite hand back only the first half of the
	// buffer and report crash=true: the caller persists the torn
	// prefix and then dies, modeling power loss mid-record. At plain
	// Inject/InjectErr sites it behaves like ModePanic.
	ModeTorn Mode = "torn"
	// ModeShort makes InjectWrite drop the final bytes of the buffer
	// and report crash=true — the short-write flavor of the same
	// crash-mid-record fault (the frame header survives intact, the
	// payload does not).
	ModeShort Mode = "short"
)

// PointConfig is one point's trigger rule.
type PointConfig struct {
	// Mode is what happens on a triggered hit.
	Mode Mode
	// After is the first hit (1-based) eligible to trigger; 0 means
	// the first hit.
	After int
	// Count is how many eligible hits trigger; 0 means one.
	Count int
	// Prob, when > 0, gates each eligible hit on the plan's seeded
	// RNG instead of triggering unconditionally.
	Prob float64
	// Delay is the sleep for ModeDelay.
	Delay time.Duration
}

// Plan maps injection points to their trigger rules.
type Plan struct {
	// Seed drives the RNG used for Prob-gated points; the zero seed
	// is as valid as any other.
	Seed int64
	// Points maps point names (the Point* constants) to triggers.
	Points map[string]PointConfig
}

// Injected is the panic value and error produced by a triggered
// point, so chaos tests can tell injected faults from real ones.
type Injected struct {
	// Point names the injection point that fired.
	Point string
}

// Error makes Injected usable as the spurious error of ModeError.
func (i Injected) Error() string {
	return "fault: injected at " + i.Point
}

// Named injection points. Keeping them in one block documents the
// fault surface: every place a worker can die, stall, or error is
// listed here and exercised by the chaos lane.
const (
	// PointReplicatedMatrix fires in a replicated worker's phase-1
	// matrix build, before any network mutation of the round.
	PointReplicatedMatrix = "core.replicated.matrix"
	// PointReplicatedSearch fires at the top of a replicated
	// worker's cover loop, between rectangle extractions.
	PointReplicatedSearch = "core.replicated.search"
	// PointReplicatedDivide fires just before a replicated worker
	// applies the round's winning rectangle to its own copy.
	PointReplicatedDivide = "core.replicated.divide"
	// PointReplicatedBarrier fires immediately before the decision
	// barrier — the natural place for a ModeDelay straggler.
	PointReplicatedBarrier = "core.replicated.barrier"

	// PointPartitionedExtract fires at the start of one partition
	// task, before its clone is factored.
	PointPartitionedExtract = "core.partitioned.extract"
	// PointPartitionedMerge fires before one partition's merge-back
	// into the caller's network.
	PointPartitionedMerge = "core.partitioned.merge"

	// PointLShapedMatrix fires in an L-shaped worker's phase-1
	// matrix build.
	PointLShapedMatrix = "core.lshaped.matrix"
	// PointLShapedCover fires at the top of an L-shaped worker's
	// concurrent cover loop, between rectangle claims.
	PointLShapedCover = "core.lshaped.cover"
	// PointLShapedForward fires before a worker processes its
	// forwarded-division queue.
	PointLShapedForward = "core.lshaped.forward"

	// PointKCMRebuild fires in each kerneling worker of
	// kcm.Patcher.Rebuild, before every node the worker kernels.
	PointKCMRebuild = "kcm.rebuild"
	// PointRectPresearch fires in each worker of the rectangle
	// search's root presearch, before every root column it searches.
	PointRectPresearch = "rect.presearch"

	// PointServiceJob fires in the worker pool just before a job is
	// dispatched to a core driver.
	PointServiceJob = "service.pool.job"

	// PointBlifRead and PointEqnRead fire (ModeError) in the circuit
	// readers, modeling transient upload/parse-path failures.
	PointBlifRead = "blif.read"
	PointEqnRead  = "eqn.read"

	// PointClusterForward fires in the forwarding watcher before a job
	// is proxied to its owning peer — an error here exercises the
	// degraded-local requeue path.
	PointClusterForward = "cluster.forward"
	// PointClusterHeartbeat fires before each membership probe round,
	// modeling a node whose failure detector stalls or whose probes
	// are lost.
	PointClusterHeartbeat = "cluster.heartbeat"
	// PointClusterReplicate fires before a replication batch is pushed
	// to one peer; the batch must survive to a later round.
	PointClusterReplicate = "cluster.replicate"
	// PointClusterHandoff fires before a cache handoff to a peer that
	// (re)joined the ring.
	PointClusterHandoff = "cluster.handoff"

	// PointDurableAppend fires (via InjectWrite) on every journal
	// record append. Error mode fails the append; torn/short modes
	// persist a corrupted frame and kill the process, so replay must
	// detect the damage by CRC and truncate.
	PointDurableAppend = "durable.append"
	// PointDurableFsync fires before each journal fsync, modeling a
	// full disk or dying device at the sync barrier.
	PointDurableFsync = "durable.fsync"
	// PointDurableSnapshot fires before a cache/job-table snapshot is
	// written; an error here must leave the previous snapshot and the
	// journal fully usable.
	PointDurableSnapshot = "durable.snapshot"
	// PointDurableReplay fires per record during startup replay; an
	// error stops replay at the last good record instead of failing
	// the boot — the same contract as a corrupted tail.
	PointDurableReplay = "durable.replay"
)

// RegistryWithPrefix returns the registered fault points whose names
// start with prefix, in sorted order. Chaos tests iterate these
// instead of hand-maintained lists, so adding a Point* constant (and
// regenerating the registry with `repolint -write-faultpoints`)
// automatically widens every matching matrix.
//
//repolint:allow testonly -- fault's registry test and core's faultinject chaos test iterate it
func RegistryWithPrefix(prefix string) []string {
	var out []string
	for _, p := range Registry {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	return out
}
