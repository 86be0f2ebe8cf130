// Package cluster turns a set of factord processes into one
// peer-to-peer sharded service. Each node carries the full service
// stack (queue, pool, cache); the cluster layer adds
//
//   - a consistent-hash ring (internal/cluster/ring) over the
//     canonical sha256 job key, so every node routes a given job to
//     the same owner,
//   - HTTP membership with join/leave, periodic heartbeats carrying a
//     roster for gossip, and suspicion timeouts (alive -> suspect ->
//     dead by time since last first-hand contact),
//   - transparent forwarding: any node accepts a submission, and if
//     the ring says a peer owns the key, a watcher goroutine proxies
//     the job there and mirrors the outcome into the local job table —
//     falling back to local execution if the owner is unreachable, so
//     an accepted job is never lost, and
//   - asynchronous result-cache replication with last-writer-wins
//     merging stamped by a hybrid logical clock
//     (internal/cluster/hlc), plus a full-cache handoff to peers that
//     (re)join.
//
// There is no elected coordinator: membership is symmetric, every
// node probes every other directly, and a partitioned node keeps
// serving with whatever members it can still reach (jobs it cannot
// forward run locally). The design targets the paper's scale — a
// handful of nodes sharing factorization load — not hundreds.
//
//repolint:crash-tolerant
package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster/hlc"
	"repro/internal/core"
	"repro/internal/service"
)

// Config parameterizes one cluster node.
type Config struct {
	// NodeID is the node's stable identity on the ring. Must be
	// unique across the cluster and survive restarts (restarts are
	// detected by incarnation, not by id churn).
	NodeID string
	// Addr is the advertised host:port peers use to reach this node's
	// HTTP API.
	Addr string
	// Seeds are peer addresses to join through at startup. Empty
	// seeds bootstrap a new cluster of one.
	Seeds []string
	// VNodes is the virtual-node count per member on the ring.
	VNodes int
	// HeartbeatInterval is the probe period.
	HeartbeatInterval time.Duration
	// SuspectAfter is how long without first-hand contact before an
	// alive member turns suspect (still on the ring, still probed).
	SuspectAfter time.Duration
	// DeadAfter is how long without contact before a suspect member
	// turns dead (off the ring; probing continues so a healed
	// partition is detected).
	DeadAfter time.Duration
	// ReplicateInterval is the cache-replication flush period.
	ReplicateInterval time.Duration
	// HTTPTimeout bounds each peer HTTP request. A forwarding watcher
	// asks the owner to hold each status request for half of it.
	HTTPTimeout time.Duration
	// Transport overrides the HTTP transport for peer traffic. The
	// partition harness injects a link-dropping transport here; nil
	// uses http.DefaultTransport.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 0 // ring.DefaultVNodes applies downstream
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 20 * c.HeartbeatInterval
	}
	if c.ReplicateInterval <= 0 {
		c.ReplicateInterval = 500 * time.Millisecond
	}
	if c.HTTPTimeout <= 0 {
		c.HTTPTimeout = 2 * time.Second
	}
	return c
}

// Node is one member of the cluster: the glue between the local
// service.Server and its peers.
type Node struct {
	cfg     Config
	srv     *service.Server
	clock   *hlc.Clock
	members *membership
	repl    *replicator
	client  *http.Client
	ctx     context.Context

	// leaving is set by Stop so the heartbeat loop does not announce
	// this node to peers after they have processed its departure.
	leaving atomic.Bool

	// Counters for /v1/stats; all atomic.
	forwarded         atomic.Int64
	remoteRequeues    atomic.Int64
	replicatedOut     atomic.Int64
	replicatedIn      atomic.Int64
	heartbeatsSent    atomic.Int64
	heartbeatFailures atomic.Int64
	handoffs          atomic.Int64
}

// New wires a node over an existing (not yet started) server: the
// cache gets the node's hybrid logical clock and replication hook, the
// router gets the node as its RemoteRunner, and the server's stats
// gain a cluster section. The node inherits ctx for every loop and
// peer request; cancel it to stop all cluster activity.
func New(ctx context.Context, cfg Config, srv *service.Server) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:    cfg,
		srv:    srv,
		clock:  hlc.New(cfg.NodeID),
		client: &http.Client{Transport: cfg.Transport, Timeout: cfg.HTTPTimeout},
		ctx:    ctx,
	}
	n.members = newMembership(Member{
		ID:          cfg.NodeID,
		Addr:        cfg.Addr,
		Incarnation: time.Now().UnixNano(),
	}, cfg.SuspectAfter, cfg.DeadAfter, cfg.VNodes)
	n.repl = newReplicator(n)
	cache := srv.Router().Cache()
	// A restarted node arrives here with its crash-recovered cache
	// already populated (Server.OpenDurable runs first). Fold the
	// recovered stamps into the fresh clock so every stamp issued from
	// now on orders after them — without this, a recovered entry could
	// win last-writer-wins against a genuinely newer local result.
	for _, ent := range cache.Snapshot() {
		n.clock.Observe(ent.Stamp)
	}
	cache.SetClock(n.clock)
	cache.SetOnStore(n.repl.enqueue)
	n.members.onAlive = n.handoffTo
	srv.Router().SetRemote(n)
	srv.SetClusterStats(func() any { return n.statsSnapshot() })
	return n
}

// Start joins through the configured seeds and launches the heartbeat
// and replication loops.
func (n *Node) Start() {
	n.joinSeeds(n.ctx)
	go core.Guard("cluster", -1, nil, func() { n.heartbeatLoop(n.ctx) })
	go core.Guard("cluster", -1, nil, func() { n.repl.loop(n.ctx) })
}

// Stop announces departure to every reachable peer (best effort) so
// they drop this node from the ring immediately instead of waiting
// out the suspicion timeouts. Probing stops first — one more outgoing
// heartbeat after the leave would re-admit this node to a peer's
// view.
func (n *Node) Stop() {
	n.leaving.Store(true)
	for _, m := range n.members.known() {
		n.postLeave(n.ctx, m.Addr)
	}
}
