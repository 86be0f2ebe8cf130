// Package service implements the factorization daemon behind
// cmd/factord: a bounded job queue with admission control, a worker
// pool that runs jobs through the internal/core drivers with
// per-job deadlines and cooperative cancellation, an LRU result cache
// keyed by a canonical hash of the parsed network plus parameters,
// and an HTTP API (submit, status, result download, cancel, stats)
// with graceful drain.
//
// The paper measures factorization as the dominant cost of a
// synthesis run (~61% of SIS script time, Table 1); this package is
// the serving layer that turns the reproduced algorithms into a
// long-running, load-shedding service.
//
// Worker failures climb a recovery ladder (same-algorithm retry with
// backoff, then a degraded sequential rerun, then FAILED); every
// goroutine the package spawns runs behind core.Guard.
//
//repolint:crash-tolerant
package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kcm"
	"repro/internal/network"
	"repro/internal/rect"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle: QUEUED -> RUNNING -> DONE | FAILED | CANCELLED, with
// QUEUED -> CANCELLED for jobs cancelled before a worker picks them
// up.
const (
	StateQueued    State = "QUEUED"
	StateRunning   State = "RUNNING"
	StateDone      State = "DONE"
	StateFailed    State = "FAILED"
	StateCancelled State = "CANCELLED"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is the client-visible parameterization of one factorization
// job.
type Spec struct {
	// Algo selects the algorithm: "seq", "repl", "part" or
	// "lshape".
	Algo string `json:"algo"`
	// P is the virtual processor count for the parallel algorithms.
	P int `json:"p,omitempty"`
	// BatchK is the rectangles harvested per search enumeration
	// (see extract.Options.BatchK).
	BatchK int `json:"batch_k,omitempty"`
	// MaxCols caps the rectangle search depth.
	MaxCols int `json:"max_cols,omitempty"`
	// MaxVisits caps the rectangle search visits.
	MaxVisits int `json:"max_visits,omitempty"`
	// DeadlineMS bounds the job's wall-clock run time in
	// milliseconds; 0 takes the server default.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Verify requests a post-run simulation equivalence check of
	// the factored network against the submitted one.
	Verify bool `json:"verify,omitempty"`
}

// Algorithms lists the accepted Spec.Algo values.
func Algorithms() []string { return []string{"seq", "repl", "part", "lshape"} }

// WithDefaults fills zero fields with the serving defaults.
func (s Spec) WithDefaults() Spec {
	if s.Algo == "" {
		s.Algo = "seq"
	}
	if s.P <= 0 {
		s.P = 4
	}
	if s.BatchK <= 0 {
		s.BatchK = 16
	}
	if s.MaxCols <= 0 {
		s.MaxCols = 5
	}
	if s.MaxVisits <= 0 {
		s.MaxVisits = 100000
	}
	return s
}

// Validate rejects specs the pool cannot run.
func (s Spec) Validate() error {
	switch s.Algo {
	case "seq", "repl", "part", "lshape":
	default:
		return fmt.Errorf("service: unknown algorithm %q (want %s)",
			s.Algo, strings.Join(Algorithms(), "|"))
	}
	if s.P > core.MaxProcs {
		return fmt.Errorf("service: p=%d exceeds the %d-processor cap", s.P, core.MaxProcs)
	}
	return nil
}

// CoreOptions translates the spec into driver options.
func (s Spec) CoreOptions() core.Options {
	return core.Options{
		Rect:   rect.Config{MaxCols: s.MaxCols, MaxVisits: s.MaxVisits},
		BatchK: s.BatchK,
	}
}

// Result is a completed factorization: the run metrics and the
// factored network. A Result stored in the cache is shared between
// jobs and must be treated as immutable — readers serialize it, never
// rewrite it.
type Result struct {
	// Run reports the algorithm run.
	Run core.RunResult
	// Net is the factored network. Immutable once the Result is
	// published.
	Net *network.Network
	// Verified is set when the job requested Verify and the
	// factored network passed the simulation equivalence check.
	Verified bool
	// Degraded is set when the requested parallel algorithm failed
	// repeatedly and the sequential fallback produced this result.
	// Degraded results are never shared through the cache.
	Degraded bool
}

// Job is one factorization request moving through the queue, pool and
// job table.
type Job struct {
	// ID is the server-assigned identifier.
	ID string
	// Name is the circuit name from the submission.
	Name string
	// Spec are the job parameters (already defaulted and
	// validated).
	Spec Spec
	// Key is the canonical cache key of (parsed network, spec).
	Key string
	// Deadline is the job's effective run-time bound.
	Deadline time.Duration

	// nw is the parsed input network. The submitting handler writes
	// it once; afterwards only the single worker running the job
	// touches it, so it needs no lock.
	nw *network.Network

	// circuit is the canonical BLIF serialization of the submitted
	// network, captured before any driver mutates nw — the durable
	// payload a crash-restart recomputes from. Written once at
	// registration (empty without a data dir), like nw.
	circuit string

	// done is closed on the job's single transition into a terminal
	// state, under mu; GET /v1/jobs/{id}?wait= blocks on it.
	done chan struct{}

	// notify, when non-nil, observes every lifecycle transition; the
	// durability layer journals them through it. Installed once at
	// registration, before the job is visible to any worker, and
	// always invoked outside mu (it does disk IO).
	notify func(j *Job, state State)

	mu sync.Mutex
	// state is guarded by mu.
	state State
	// errMsg is guarded by mu.
	errMsg string
	// cancelRequested is guarded by mu.
	cancelRequested bool
	// cancel is guarded by mu. Non-nil only while RUNNING.
	cancel context.CancelFunc
	// result is guarded by mu. Non-nil only once DONE.
	result *Result
	// cacheHit is guarded by mu.
	cacheHit bool
	// submitted is guarded by mu.
	submitted time.Time
	// started is guarded by mu.
	started time.Time
	// finished is guarded by mu.
	finished time.Time
	// remoteNode is guarded by mu. Non-empty while the job runs on a
	// peer (the cluster forwarding path) instead of the local pool.
	remoteNode string
}

// newJob returns a QUEUED job; the caller supplies an already
// defaulted and validated spec and the parsed network.
func newJob(id, name string, spec Spec, key string, nw *network.Network, deadline time.Duration) *Job {
	return &Job{
		ID:        id,
		Name:      name,
		Spec:      spec,
		Key:       key,
		Deadline:  deadline,
		nw:        nw,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result, or nil unless the job is DONE.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.result
}

// Cancel requests cancellation. A QUEUED job goes straight to
// CANCELLED (the pool skips it when popped); a RUNNING job has its
// context cancelled and reaches CANCELLED at the core's next
// iteration boundary. Terminal jobs are left alone. It reports
// whether the request had any effect.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		j.terminateLocked(StateCancelled, "cancelled before start")
		j.mu.Unlock()
		j.fireNotify(StateCancelled)
		return true
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// fireNotify reports a completed transition to the durability layer.
// Called after mu is released: the journal append inside must not
// serialize job state reads behind disk latency. Transitions
// themselves stay ordered per job for every path that matters —
// terminal records win over lifecycle records at replay regardless of
// journal order, so the one benign race (finish landing before the
// begin record) cannot resurrect a finished job.
func (j *Job) fireNotify(state State) {
	if j.notify != nil {
		j.notify(j, state)
	}
}

// begin transitions QUEUED -> RUNNING and installs the run context's
// cancel function. It reports false (and does nothing) when the job
// was cancelled while queued.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.started = time.Now()
	j.mu.Unlock()
	j.fireNotify(StateRunning)
	return true
}

// finish transitions RUNNING to a terminal state.
func (j *Job) finish(state State, res *Result, cacheHit bool, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.result = res
	j.cacheHit = cacheHit
	j.cancel = nil
	j.remoteNode = ""
	j.terminateLocked(state, errMsg)
	j.mu.Unlock()
	j.fireNotify(state)
}

// terminateLocked enters the terminal state and closes done. The
// caller holds mu and has checked that the job is not yet terminal, so
// done closes exactly once.
func (j *Job) terminateLocked(state State, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	close(j.done)
}

// CancelRequested reports whether a client asked to cancel the job.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// Network returns the parsed input network. The cluster forwarding
// path serializes it to re-submit the job to its owning peer; callers
// must treat it as read-only.
func (j *Job) Network() *network.Network { return j.nw }

// BeginRemote transitions QUEUED -> RUNNING for execution on a peer:
// it records the owning node and installs the watcher context's cancel
// function. It reports false (and does nothing) when the job was
// cancelled while queued.
func (j *Job) BeginRemote(node string, cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.remoteNode = node
	j.started = time.Now()
	j.mu.Unlock()
	j.fireNotify(StateRunning)
	return true
}

// FinishRemote records the terminal outcome mirrored back from the
// owning peer.
func (j *Job) FinishRemote(state State, res *Result, cacheHit bool, errMsg string) {
	j.finish(state, res, cacheHit, errMsg)
}

// requeueLocal returns a remotely-RUNNING job to QUEUED so the local
// pool can pick it up — the degraded path when its owner became
// unreachable. A job whose client asked to cancel it finishes
// CANCELLED instead: the cancel wins over the requeue. It reports
// false when the job is terminal on return (nothing to recover).
func (j *Job) requeueLocal() bool {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return false
	}
	j.remoteNode = ""
	j.cancel = nil
	if j.cancelRequested {
		j.terminateLocked(StateCancelled, "cancelled")
		j.mu.Unlock()
		j.fireNotify(StateCancelled)
		return false
	}
	j.state = StateQueued
	j.started = time.Time{}
	j.mu.Unlock()
	j.fireNotify(StateQueued)
	return true
}

// restoreTerminal places a recovered job directly into a terminal
// state without firing notify — the transition was already journaled
// before the crash; re-journaling it on every restart would grow the
// log for no information.
func (j *Job) restoreTerminal(state State, res *Result, cacheHit bool, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.result = res
	j.cacheHit = cacheHit
	j.submitted = time.Now()
	j.terminateLocked(state, errMsg)
}

// persistView returns the fields the durability layer journals and
// snapshots for this job.
func (j *Job) persistView() (state State, errMsg string, cacheHit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.cacheHit
}

// Status is the wire representation of a job's state, returned by
// GET /v1/jobs/{id}.
type Status struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	State    State  `json:"state"`
	Spec     Spec   `json:"spec"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// RemoteNode names the peer currently executing the job, when the
	// cluster layer forwarded it.
	RemoteNode string `json:"remote_node,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Run metrics, present once DONE.
	LC          int    `json:"lc,omitempty"`
	Extracted   int    `json:"extracted,omitempty"`
	Calls       int    `json:"calls,omitempty"`
	VirtualTime int64  `json:"virtual_time,omitempty"`
	TotalWork   int64  `json:"total_work,omitempty"`
	WallMS      int64  `json:"wall_ms,omitempty"`
	Algorithm   string `json:"algorithm,omitempty"`
	Verified    bool   `json:"verified,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
	// Build carries the run's incremental matrix-build counters
	// (build wall time, nodes re-kerneled vs reused, arena bytes
	// recycled).
	Build *kcm.BuildStats `json:"build,omitempty"`
}

// Snapshot captures the job's current status for the API.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		Name:        j.Name,
		State:       j.state,
		Spec:        j.Spec,
		Error:       j.errMsg,
		CacheHit:    j.cacheHit,
		RemoteNode:  j.remoteNode,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.state == StateDone && j.result != nil {
		st.LC = j.result.Run.LC
		st.Extracted = j.result.Run.Extracted
		st.Calls = j.result.Run.Calls
		st.VirtualTime = j.result.Run.VirtualTime
		st.TotalWork = j.result.Run.TotalWork
		st.WallMS = j.result.Run.WallClock.Milliseconds()
		st.Algorithm = j.result.Run.Algorithm
		st.Verified = j.result.Verified
		st.Degraded = j.result.Degraded
		b := j.result.Run.Build
		st.Build = &b
	}
	return st
}
