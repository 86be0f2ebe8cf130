package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/network"
)

// ForwardedHeader marks a submission that was already routed by a
// peer: the receiving node must execute it locally instead of
// consulting its own ring, so a transient view disagreement between
// two nodes degrades to one extra hop, never a forwarding loop.
const ForwardedHeader = "X-Factord-Forwarded"

// RemoteRunner is the routing side's hook into the cluster layer.
// When installed (SetRemote), the Router consults it for every
// non-forwarded submission; a nil RemoteRunner is the single-node
// configuration and every job runs on the local pool.
type RemoteRunner interface {
	// Owner resolves the canonical key to its owning node under the
	// current membership view; remote is false when the local node
	// owns the key (or is the only member).
	Owner(key string) (node string, remote bool)
	// Run takes responsibility for driving j to a terminal state on
	// node — forwarding the submission, mirroring the remote outcome,
	// and requeueing locally (Router.Requeue) if the owner becomes
	// unreachable. It returns false when the remote path cannot even
	// start (unknown peer address), in which case the Router runs the
	// job locally.
	Run(j *Job, node string) bool
}

// Router is the routing half of the service: admission, the job
// table, the result cache, and the local-vs-remote dispatch decision.
// Execution — the worker pool and the core drivers — lives in Pool;
// the two halves meet only through the Queue and the Cache, which is
// what lets the cluster layer slot a remote peer in as just another
// executor.
type Router struct {
	queue   *Queue
	cache   *Cache
	maxJobs int

	// remote is installed once by the cluster layer before serving
	// starts (SetRemote); nil means single-node.
	remote RemoteRunner

	// persist is installed once by Server.OpenDurable before serving
	// starts; nil means no data directory (in-memory only).
	persist *persistor

	mu sync.Mutex
	// jobs is guarded by mu.
	jobs map[string]*Job
	// order is guarded by mu; submission order, for pruning.
	order []string
	// seq is guarded by mu.
	seq int64
}

// NewRouter wires a router over the queue and cache shared with the
// execution pool.
func NewRouter(q *Queue, c *Cache, maxJobs int) *Router {
	return &Router{queue: q, cache: c, maxJobs: maxJobs, jobs: map[string]*Job{}}
}

// Cache exposes the result cache to the cluster layer (replication
// and handoff operate on it directly).
func (rt *Router) Cache() *Cache { return rt.cache }

// Queue exposes the admission queue (stats).
func (rt *Router) Queue() *Queue { return rt.queue }

// SetRemote installs the cluster dispatch hook. Call before the
// server starts serving; the field is read without synchronization on
// every submission.
func (rt *Router) SetRemote(r RemoteRunner) { rt.remote = r }

// Dispatch routes a registered job: to the owning peer when a remote
// runner is installed, the submission was not already forwarded, and
// no replicated cache entry can satisfy it locally; otherwise onto
// the local queue. The error (ErrQueueFull, ErrQueueClosed) is the
// admission signal the HTTP layer maps to 429/503.
func (rt *Router) Dispatch(j *Job, forwarded bool) error {
	if r := rt.remote; r != nil && !forwarded && !rt.cache.Contains(j.Key) {
		if node, remote := r.Owner(j.Key); remote {
			if r.Run(j, node) {
				return nil
			}
		}
	}
	return rt.queue.Push(j)
}

// Requeue returns a remotely-running job to the local queue — the
// degraded-local path when its owner became unreachable mid-job. A
// job whose client asked to cancel it finishes CANCELLED instead,
// decided under the job's lock, so a cancel never re-runs the job
// locally. A job that reached a terminal state in the meantime is left
// alone; a job that cannot be re-admitted is cancelled (draining) or
// failed (overload) rather than silently dropped.
func (rt *Router) Requeue(j *Job) {
	if !j.requeueLocal() {
		return
	}
	if err := rt.queue.Push(j); err != nil {
		if errors.Is(err, ErrQueueClosed) {
			j.Cancel()
			return
		}
		j.finish(StateFailed, nil, false,
			fmt.Sprintf("owner unreachable and local requeue failed: %v", err))
	}
}

// Register allocates an id, stores the job in the table, and prunes
// old finished jobs past the retention bound. With durability enabled
// the job leaves here carrying its journal hook and canonical circuit
// text, installed before any worker can see it.
func (rt *Router) Register(name string, spec Spec, key string, nw *network.Network, deadline time.Duration) *Job {
	j, over := rt.add(name, spec, key, nw, deadline)
	if p := rt.persist; p != nil {
		p.prepare(j)
	}
	if over {
		rt.prune()
	}
	return j
}

// restoreJob re-inserts a recovered job under its pre-crash id and
// advances the sequence watermark so fresh ids never collide with
// recovered ones. Only startup recovery calls this, before serving.
func (rt *Router) restoreJob(j *Job) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var n int64
	if _, err := fmt.Sscanf(j.ID, "job-%d", &n); err == nil && n > rt.seq {
		rt.seq = n
	}
	if _, ok := rt.jobs[j.ID]; ok {
		return
	}
	rt.jobs[j.ID] = j
	rt.order = append(rt.order, j.ID)
}

// add stores a fresh job in the table and reports whether the table
// has grown past the retention bound.
func (rt *Router) add(name string, spec Spec, key string, nw *network.Network, deadline time.Duration) (*Job, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.seq++
	id := fmt.Sprintf("job-%d", rt.seq)
	j := newJob(id, name, spec, key, nw, deadline)
	rt.jobs[id] = j
	rt.order = append(rt.order, id)
	return j, len(rt.jobs) > rt.maxJobs
}

// prune drops the oldest terminal jobs while the table exceeds
// maxJobs. Job states are read before taking the table lock —
// router.mu is never held across a job.mu acquisition — so a job
// finishing concurrently can survive until the next prune.
func (rt *Router) prune() {
	terminal := map[string]bool{}
	for _, j := range rt.SnapshotJobs() {
		if j.State().Terminal() {
			terminal[j.ID] = true
		}
	}
	rt.dropOldest(terminal)
}

// dropOldest deletes the oldest jobs in droppable while the table
// exceeds maxJobs.
func (rt *Router) dropOldest(droppable map[string]bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	kept := rt.order[:0]
	for _, id := range rt.order {
		if _, ok := rt.jobs[id]; !ok {
			continue
		}
		if len(rt.jobs) > rt.maxJobs && droppable[id] {
			delete(rt.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	rt.order = kept
}

// Unregister removes a job that never made it past admission.
func (rt *Router) Unregister(id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.jobs, id)
	for i, v := range rt.order {
		if v == id {
			rt.order = append(rt.order[:i], rt.order[i+1:]...)
			break
		}
	}
}

// Job looks up a job by id.
func (rt *Router) Job(id string) (*Job, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	j, ok := rt.jobs[id]
	return j, ok
}

// SnapshotJobs copies the job table out from under the lock, in
// submission order.
func (rt *Router) SnapshotJobs() []*Job {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Job, 0, len(rt.jobs))
	for _, id := range rt.order {
		if j, ok := rt.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}
