package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/eqn"
	"repro/internal/network"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the worker-pool size.
	Workers int
	// QueueCap bounds the admission queue.
	QueueCap int
	// CacheCap bounds the LRU result cache (entries).
	CacheCap int
	// MaxJobs bounds the job table; beyond it the oldest finished
	// jobs are pruned.
	MaxJobs int
	// MaxBodyBytes bounds one HTTP request body.
	MaxBodyBytes int64
	// BlifLimits / EqnLimits bound parsed uploads.
	BlifLimits blif.Limits
	EqnLimits  eqn.Limits
	// DefaultDeadline applies to jobs that request none; MaxDeadline
	// clamps what a job may request.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DrainGrace is how long Shutdown lets in-flight jobs finish
	// before cancelling them.
	DrainGrace time.Duration
	// RetryAfter is the advisory backoff returned with 429.
	RetryAfter time.Duration
	// DataDir, when non-empty, enables the durable job journal: every
	// accepted job and lifecycle transition is journaled there and
	// recovered by OpenDurable after a crash. Empty keeps the server
	// purely in-memory.
	DataDir string
	// Fsync is the journal's fsync policy (durable.PolicyAlways when
	// zero-valued and DataDir is set).
	Fsync durable.Policy
	// SnapshotInterval is how often the full state image is rewritten
	// and the journal rotated.
	SnapshotInterval time.Duration
}

// MaxStatusWait caps the ?wait= of GET /v1/jobs/{id}: the longest a
// status request is held open waiting for its job to finish.
const MaxStatusWait = 30 * time.Second

// DefaultConfig returns serving defaults suitable for one host.
func DefaultConfig() Config {
	return Config{
		Workers:      4,
		QueueCap:     64,
		CacheCap:     256,
		MaxJobs:      10000,
		MaxBodyBytes: 8 << 20,
		BlifLimits: blif.Limits{
			MaxLineBytes: 1 << 20,
			MaxNodes:     1 << 17,
			MaxCubes:     1 << 21,
			MaxInputs:    1 << 16,
		},
		EqnLimits: eqn.Limits{
			MaxLineBytes: 1 << 20,
			MaxStmtBytes: 1 << 20,
			MaxNodes:     1 << 17,
			MaxInputs:    1 << 16,
		},
		DefaultDeadline: 60 * time.Second,
		MaxDeadline:     10 * time.Minute,
		DrainGrace:      10 * time.Second,
		RetryAfter:      time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueCap <= 0 {
		c.QueueCap = d.QueueCap
	}
	if c.CacheCap == 0 {
		c.CacheCap = d.CacheCap
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = d.MaxJobs
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.BlifLimits == (blif.Limits{}) {
		c.BlifLimits = d.BlifLimits
	}
	if c.EqnLimits == (eqn.Limits{}) {
		c.EqnLimits = d.EqnLimits
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = d.DefaultDeadline
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = d.MaxDeadline
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = d.DrainGrace
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.Fsync.Mode == "" {
		c.Fsync = durable.PolicyAlways
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	return c
}

// Server is the HTTP face of the service: it parses submissions,
// delegates routing to the Router and execution to the Pool, and
// serializes job state back to clients.
type Server struct {
	cfg    Config
	router *Router
	pool   *Pool

	// ctx is the process root passed to NewServer; the durability
	// snapshot loop inherits from it.
	ctx context.Context

	// persist is non-nil once OpenDurable has recovered the data
	// directory; set before serving starts.
	persist *persistor

	draining atomic.Bool
	// drain is closed when draining first flips to true; it releases
	// status requests held by ?wait=.
	drain chan struct{}

	// clusterStats, when non-nil, contributes the cluster section of
	// GET /v1/stats. Installed by the cluster layer before serving.
	clusterStats func() any
}

// NewServer builds a server (pool not yet started). The pool and all
// jobs inherit from ctx; pass the process root so a daemon-level
// shutdown can abort every in-flight factorization.
func NewServer(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	q := NewQueue(cfg.QueueCap)
	c := NewCache(cfg.CacheCap)
	return &Server{
		cfg:    cfg,
		router: NewRouter(q, c, cfg.MaxJobs),
		pool:   NewPool(ctx, cfg.Workers, q, c, cfg.DefaultDeadline, cfg.MaxDeadline),
		ctx:    ctx,
		drain:  make(chan struct{}),
	}
}

// OpenDurable opens (or creates) the configured data directory,
// replays the snapshot and journal found there, and rebuilds the job
// table, queue and cache — every job accepted before a crash is either
// restored to its terminal state or re-enqueued for recomputation.
// Call between NewServer and Start, before the listener opens and
// before the cluster layer attaches (a restarted node's recovered
// cache rides the normal handoff/replication path from there). A nil
// error with Config.DataDir empty is a no-op.
func (s *Server) OpenDurable() (RecoveryStats, error) {
	if s.cfg.DataDir == "" {
		return RecoveryStats{}, nil
	}
	store, recovered, err := durable.Open(s.cfg.DataDir, s.cfg.Fsync)
	if err != nil {
		return RecoveryStats{}, fmt.Errorf("opening data dir %s: %w", s.cfg.DataDir, err)
	}
	p := &persistor{
		store:    store,
		router:   s.router,
		queue:    s.router.Queue(),
		cache:    s.router.Cache(),
		interval: s.cfg.SnapshotInterval,
	}
	stats := p.recoverState(recovered)
	s.persist = p
	s.router.persist = p
	return stats, nil
}

// Pool exposes the worker pool (tests install the OnJobRunning hook).
//
//repolint:allow testonly -- service's and cluster's tests install the OnJobRunning hook through it
func (s *Server) Pool() *Pool { return s.pool }

// Router exposes the routing half (the cluster layer installs its
// RemoteRunner and reaches the cache through it).
func (s *Server) Router() *Router { return s.router }

// SetClusterStats installs the cluster stats contributor. Call before
// serving starts.
func (s *Server) SetClusterStats(fn func() any) { s.clusterStats = fn }

// Start launches the worker pool and, with durability enabled, the
// periodic snapshot loop.
func (s *Server) Start() {
	s.pool.Start()
	if p := s.persist; p != nil {
		go core.Guard("service", -1, nil, func() { p.loop(s.ctx) })
	}
}

// Shutdown drains gracefully: admission stops (503 on submit, /readyz
// flips), status requests held by ?wait= are released, queued jobs are
// cancelled, in-flight jobs get the configured grace before their
// contexts are cancelled, and the durability layer writes a final
// snapshot.
func (s *Server) Shutdown() {
	already := s.draining.Swap(true)
	if !already {
		close(s.drain)
	}
	s.pool.Shutdown(s.cfg.DrainGrace)
	if p := s.persist; p != nil && !already {
		p.finalize()
	}
}

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Name labels the circuit (defaults to the parsed model name).
	Name string `json:"name,omitempty"`
	// Format is "blif" (default) or "eqn".
	Format string `json:"format,omitempty"`
	// Circuit is the circuit text in Format.
	Circuit string `json:"circuit"`
	// Spec parameterizes the factorization.
	Spec
}

// SubmitResponse is the body returned by POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Key   string `json:"key"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Cache CacheStats `json:"cache"`
	Pool  PoolStats  `json:"pool"`
	Jobs  struct {
		Queued    int `json:"queued"`
		Running   int `json:"running"`
		Done      int `json:"done"`
		Failed    int `json:"failed"`
		Cancelled int `json:"cancelled"`
	} `json:"jobs"`
	Draining bool `json:"draining"`
	// Cluster is the cluster layer's section (membership, ring,
	// forwarding and replication counters); absent on a single node.
	Cluster any `json:"cluster,omitempty"`
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// handleHealth is liveness: 200 as long as the process serves HTTP,
// including during drain — a draining process is alive and must not be
// restarted by its supervisor mid-drain. Readiness lives at /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: 503 once draining so load balancers stop
// routing new submissions, 200 otherwise.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// parseCircuit parses the upload under the configured limits.
func (s *Server) parseCircuit(req *SubmitRequest) (*network.Network, error) {
	rd := strings.NewReader(req.Circuit)
	switch req.Format {
	case "", "blif":
		return blif.ReadLimits(rd, s.cfg.BlifLimits)
	case "eqn":
		name := req.Name
		if name == "" {
			name = "eqn"
		}
		return eqn.ReadLimits(rd, name, s.cfg.EqnLimits)
	default:
		return nil, fmt.Errorf("unknown format %q (want blif or eqn)", req.Format)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if strings.TrimSpace(req.Circuit) == "" {
		writeErr(w, http.StatusBadRequest, "empty circuit")
		return
	}
	spec := req.Spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	nw, err := s.parseCircuit(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parsing circuit: %v", err)
		return
	}
	name := req.Name
	if name == "" {
		name = nw.Name
	}
	deadline := time.Duration(spec.DeadlineMS) * time.Millisecond
	key := CanonicalKey(nw, spec)
	j := s.router.Register(name, spec, key, nw, deadline)

	// The admission becomes durable before the client hears 202: once
	// accepted, the job survives any crash. A journal that cannot
	// take the record means the guarantee cannot be given, so the
	// submission is refused rather than silently degraded.
	if p := s.persist; p != nil {
		if err := p.journalAccepted(j); err != nil {
			s.router.Unregister(j.ID)
			writeErr(w, http.StatusServiceUnavailable, "durability unavailable: %v", err)
			return
		}
	}

	forwarded := r.Header.Get(ForwardedHeader) != ""
	if err := s.router.Dispatch(j, forwarded); err != nil {
		// Cancel before unregistering: with durability on, the
		// admission record is already journaled, and the CANCELLED
		// transition this emits is what keeps replay from
		// resurrecting a job the client saw rejected.
		j.Cancel()
		s.router.Unregister(j.ID)
		switch err {
		case ErrQueueFull:
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds()+0.5)))
			writeErr(w, http.StatusTooManyRequests, "queue full (depth %d); retry later", s.router.Queue().Capacity())
		default:
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.ID, State: j.State(), Key: key})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.router.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeErr(w, http.StatusBadRequest, "bad wait %q: want a non-negative duration such as 500ms", v)
			return
		}
		if !s.awaitTerminal(r.Context(), j, min(d, MaxStatusWait)) {
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// awaitTerminal holds a status request until j is terminal, d passes or
// the client goes away. It reports false when the server is draining
// and j is still not terminal: a draining server holds no request, and
// a caller that polled it again at once would spin until it exits.
func (s *Server) awaitTerminal(ctx context.Context, j *Job, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.done:
	case <-t.C:
	case <-ctx.Done():
	case <-s.drain:
	}
	return j.State().Terminal() || !s.draining.Load()
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.router.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.router.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	res := j.Result()
	if res == nil {
		writeErr(w, http.StatusConflict, "job %s is %s, not DONE", j.ID, j.State())
		return
	}
	format := r.URL.Query().Get("format")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch format {
	case "", "blif":
		if err := blif.Write(w, res.Net); err != nil {
			writeErr(w, http.StatusInternalServerError, "writing result: %v", err)
		}
	case "eqn":
		if err := eqn.Write(w, res.Net); err != nil {
			writeErr(w, http.StatusInternalServerError, "writing result: %v", err)
		}
	default:
		writeErr(w, http.StatusBadRequest, "unknown format %q (want blif or eqn)", format)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the full stats snapshot.
func (s *Server) Stats() StatsResponse {
	var resp StatsResponse
	resp.Queue.Depth = s.router.Queue().Len()
	resp.Queue.Capacity = s.router.Queue().Capacity()
	resp.Cache = s.router.Cache().Stats()
	resp.Pool = s.pool.Stats()
	resp.Draining = s.draining.Load()
	for _, j := range s.router.SnapshotJobs() {
		switch j.State() {
		case StateQueued:
			resp.Jobs.Queued++
		case StateRunning:
			resp.Jobs.Running++
		case StateDone:
			resp.Jobs.Done++
		case StateFailed:
			resp.Jobs.Failed++
		case StateCancelled:
			resp.Jobs.Cancelled++
		}
	}
	if s.clusterStats != nil {
		resp.Cluster = s.clusterStats()
	}
	return resp
}
