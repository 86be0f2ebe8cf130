package cluster

import (
	"context"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
)

// Owner implements service.RemoteRunner: it resolves the canonical key
// on the ring and reports whether a peer (rather than this node) owns
// it.
func (n *Node) Owner(key string) (string, bool) {
	id := n.members.owner(key)
	return id, id != "" && id != n.cfg.NodeID
}

// Run implements service.RemoteRunner: it takes over a registered job,
// marks it RUNNING on the owning peer, and drives it from a watcher
// goroutine. It returns false when the peer has no usable address, in
// which case the Router falls back to the local queue.
func (n *Node) Run(j *service.Job, node string) bool {
	addr, ok := n.members.addrOf(node)
	if !ok {
		return false
	}
	ctx, cancel := context.WithCancel(n.ctx)
	if !j.BeginRemote(node, cancel) {
		// Cancelled while queued; nothing left to drive.
		cancel()
		return true
	}
	n.forwarded.Add(1)
	// The failure sink requeues: even a panic inside the watcher (an
	// injected cluster.forward fault, say) cannot strand the job in
	// RUNNING — it re-enters the local queue and the pool finishes it.
	go core.Guard("cluster", -1, func(*core.WorkerFailure) { n.requeue(j) }, func() {
		defer cancel()
		n.watch(ctx, j, addr)
	})
	return true
}

// requeue sends a remotely-running job back to the local pool — the
// degraded path that keeps the no-lost-jobs guarantee when the owner
// is unreachable.
func (n *Node) requeue(j *service.Job) {
	n.remoteRequeues.Add(1)
	n.srv.Router().Requeue(j)
}

// watch proxies one job to its owner and mirrors the outcome into the
// local job table: submit, wait for a terminal state, fetch the
// factored network. Each status request asks the owner to hold it
// until the job finishes, for at most half the peer client's timeout,
// so the outcome lands here as soon as the owner has it. A peer call
// that fails because the watcher's context ended (a client cancel or a
// node shutdown) resolves through mirrorCancel; any other failure
// falls back to the local queue.
func (n *Node) watch(ctx context.Context, j *service.Job, addr string) {
	if err := fault.InjectErr(fault.PointClusterForward); err != nil {
		n.requeue(j)
		return
	}
	rid, err := n.postJob(ctx, addr, j)
	if err != nil {
		n.peerFailed(ctx, j, addr, "")
		return
	}
	var st *service.Status
	for st == nil || !st.State.Terminal() {
		if st, err = n.getStatus(ctx, addr, rid, n.cfg.HTTPTimeout/2); err != nil {
			// Owner unreachable (crashed, partitioned, or draining):
			// the accepted job must still finish, so run it here.
			n.peerFailed(ctx, j, addr, rid)
			return
		}
	}
	switch st.State {
	case service.StateDone:
		res, err := n.fetchResult(ctx, addr, rid, st)
		if err != nil {
			n.peerFailed(ctx, j, addr, rid)
			return
		}
		j.FinishRemote(service.StateDone, res, st.CacheHit, "")
		// Keep a local copy so a resubmission here hits without
		// another hop. PutReplicated (not Put) so the entry is not
		// broadcast back at its origin.
		if !res.Degraded {
			n.srv.Router().Cache().PutReplicated(j.Key, res, n.clock.Now())
		}
	case service.StateFailed:
		j.FinishRemote(service.StateFailed, nil, false, st.Error)
	case service.StateCancelled:
		// Cancelled remotely without a local request — the owner
		// was draining. Recover locally instead of surfacing a
		// cancellation the client never asked for.
		if j.CancelRequested() {
			j.FinishRemote(service.StateCancelled, nil, false, st.Error)
		} else {
			n.requeue(j)
		}
	}
}

// peerFailed resolves a watcher whose peer call failed: when the
// watcher's own context ended, the failure is the cancel's doing and
// mirrorCancel finishes the job; otherwise the owner is unreachable and
// the job goes back to the local queue. rid is empty when the forward
// itself failed.
func (n *Node) peerFailed(ctx context.Context, j *service.Job, addr, rid string) {
	if ctx.Err() != nil {
		n.mirrorCancel(j, addr, rid)
		return
	}
	n.requeue(j)
}

// mirrorCancel resolves a watcher whose context ended: a local client
// cancellation is propagated to the owner (best effort, when the owner
// accepted the job), a node shutdown just marks the job cancelled.
func (n *Node) mirrorCancel(j *service.Job, addr, rid string) {
	if j.CancelRequested() {
		if rid != "" {
			n.cancelRemote(addr, rid)
		}
		j.FinishRemote(service.StateCancelled, nil, false, "cancelled")
		return
	}
	j.FinishRemote(service.StateCancelled, nil, false, "node shutdown during remote execution")
}
