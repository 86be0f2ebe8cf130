package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/service"
)

// Service workload shape. The host has two cores, so the load comes
// from one process: a closed loop of two callers, each holding one
// connection and waiting for its job before sending the next.
const (
	clients      = 2
	pollInterval = time.Millisecond
	hotSetSize   = 16
	// hotPercent of svc-hot-3node submissions repeat a hot-set circuit.
	hotPercent = 80
	// sampleEvery picks the fresh results compared against an
	// in-process run.
	sampleEvery  = 16
	probeAppends = 500
	// Fresh inputs are generated during set-up, before timing, for
	// poolHeadroom times the job rate each service workload reached when
	// this benchmark was defined (2-vCPU VM: svc-cold-1node 57 jobs/s,
	// svc-hot-3node 110). A caller that uses up its share fails the run,
	// so a change three times faster shows as a failure to resize the
	// pool, never as a quietly different mix.
	coldBaseRate = 57
	hotBaseRate  = 110
	poolHeadroom = 3
)

// svcInput is one pre-generated submission.
type svcInput struct {
	body   []byte // the POST /v1/jobs request
	text   string // the BLIF circuit it carries
	initLC int
}

// jobRecord is one client round trip.
type jobRecord struct {
	input     int // index into the workload's inputs
	at        time.Time
	latency   time.Duration
	queueWait time.Duration
	runTime   time.Duration
	cacheHit  bool
	forwarded bool
	polls     int
	finalLC   int
	traced    bool
}

// svcRun is one svc-cold-1node or svc-hot-3node run.
type svcRun struct {
	cfg  config
	hot  bool
	dir  string
	ctrl *http.Client

	// inputs holds every circuit a client may submit: for svc-hot-3node
	// the hot set first, then the fresh circuits.
	inputs []svcInput
	// ck holds the reference result of every hot-set circuit from the
	// start, and of each sampled fresh circuit after the run.
	ck *checker

	daemons []*daemon
	// sent and fresh are each client's submission count and fresh
	// circuits used; each client touches only its own element.
	sent  [clients]int
	fresh [clients]int

	mu sync.Mutex
	// samples is guarded by mu: the fetched BLIF of sampled results.
	samples map[int]string
	// hotJobs is guarded by mu.
	hotJobs int
	// failures is guarded by mu: non-202 or non-DONE round trips.
	failures int
	// attempted is guarded by mu.
	attempted int
}

// runService runs svc-cold-1node (hot false) or svc-hot-3node.
func runService(ctx context.Context, cfg config, hot bool) (*outcome, error) {
	if cfg.factord == "" {
		return nil, errors.New("the service workloads need -factord")
	}
	dir, err := os.MkdirTemp(cfg.workdir, "svc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sr := &svcRun{
		cfg:     cfg,
		hot:     hot,
		dir:     dir,
		ctrl:    &http.Client{Timeout: 10 * time.Second},
		samples: map[int]string{},
		ck:      newChecker(),
	}
	defer func() { stopAll(sr.daemons) }()
	out := newOutcome()

	// Set-up is input generation plus daemon start until every node is
	// ready (and, clustered, sees a three-member ring). The start is
	// repeated and its median taken, as it is the noisy part;
	// generation, a few seconds of deterministic work, runs once. The
	// binary was built beforehand. A cluster node is ready only once
	// heartbeats have carried the ring to it, timer time that is not
	// scaled.
	out.cal.sample()
	t0 := time.Now()
	sr.inputs = sr.generate()
	gen := trip{at: t0, d: time.Since(t0)}
	var setups []trip
	for r := 0; r < cfg.setups; r++ {
		out.cal.sample()
		if err := stopAll(sr.daemons); err != nil {
			return nil, err
		}
		sr.daemons = nil
		t0 := time.Now()
		ds, err := startDaemons(cfg.factord, filepath.Join(dir, fmt.Sprint("setup", r)), hot)
		sr.daemons = ds
		if err != nil {
			return nil, err
		}
		if err := waitReady(ctx, sr.ctrl, ds, hot); err != nil {
			return nil, err
		}
		setups = append(setups, trip{at: t0, d: time.Since(t0), waited: hot})
	}
	texts := make([]string, len(sr.inputs))
	for i, in := range sr.inputs {
		texts[i] = in.text
	}
	out.notef("inputs: %d circuits, digest %s", len(sr.inputs), digest(texts))
	if hot {
		for i := 0; i < hotSetSize; i++ {
			ref, err := reference(sr.inputs[i].text)
			if err != nil {
				return nil, err
			}
			if err := sr.ck.add(i, ref); err != nil {
				return nil, err
			}
		}
	}

	// A fixed number of warm-up jobs fills the caches (and, clustered,
	// replicates the hot set) before timing. The daemons' memory is read
	// after it: the job table keeps every job, so memory read after a
	// timed phase would follow how many jobs the host managed.
	if _, err := sr.load(ctx, 0, cfg.warmupJobs, nil, &out.cal); err != nil {
		return nil, err
	}
	var rss float64
	for _, d := range sr.daemons {
		r, err := peakRSSMiB(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += r
	}
	out.values["peak_rss_mb"] = rss
	measured := cfg.seconds
	if cfg.trace {
		measured = cfg.seconds / 2
	}
	ph, err := sr.load(ctx, measured, 0, nil, &out.cal)
	if err != nil {
		return nil, err
	}
	out.setSetup([]trip{gen}, setups)
	sr.report(ph, out)
	if cfg.trace {
		if err := sr.traced(ctx, cfg.seconds-measured, out); err != nil {
			return nil, err
		}
	}

	if err := stopAll(sr.daemons); err != nil {
		return nil, err
	}

	if err := sr.checkSamples(); err != nil {
		return nil, err
	}
	out.attempted = sr.attempted
	out.failed = sr.failures + sr.ck.mismatched
	out.notef("%d hot-set results compared as they arrived, %d sampled fresh results after the run; %s; %d failed jobs",
		sr.hotJobs, len(sr.samples), sr.ck.summary(), sr.failures)
	if cfg.trace {
		if err := sr.probeDurable(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// generate builds the workload's inputs: svc-cold-1node gets distinct
// dalu-spec circuits, svc-hot-3node a hot set of misex3-spec circuits
// followed by fresh ones. Each is generated, serialized and wrapped in
// its request body here, before any timing.
func (sr *svcRun) generate() []svcInput {
	rate := coldBaseRate
	if sr.hot {
		rate = hotBaseRate
	}
	n := clients*sr.cfg.warmupJobs + int(float64(poolHeadroom*rate)*sr.cfg.seconds.Seconds())
	var ins []svcInput
	add := func(family string, stream uint64, i int) {
		nw := generate(family, circuitSeed(sr.cfg.seed, stream, i))
		text := blifText(nw)
		body, err := json.Marshal(service.SubmitRequest{Circuit: text})
		if err != nil {
			// A struct of strings always marshals.
			panic(err)
		}
		ins = append(ins, svcInput{body: body, text: text, initLC: nw.Literals()})
	}
	if !sr.hot {
		for i := 0; i < n; i++ {
			add("dalu", streamCold, i)
		}
	} else {
		for i := 0; i < hotSetSize; i++ {
			add("misex3", streamHotSet, i)
		}
		for i := 0; i < n*(100-hotPercent)/100; i++ {
			add("misex3", streamHotFresh, i)
		}
	}
	return ins
}

// pick returns the input of client c's next submission. Fresh circuits
// are dealt to the clients alternately, so no circuit is sent twice
// except the hot set; a client that has used up its share gets an
// error.
func (sr *svcRun) pick(c int) (int, error) {
	k := sr.sent[c]
	sr.sent[c]++
	fresh := sr.inputs
	base := 0
	if sr.hot {
		r := mix(sr.cfg.seed, streamClient, c<<32|k)
		if r%100 < hotPercent {
			return int(r>>8) % hotSetSize, nil
		}
		fresh = sr.inputs[hotSetSize:]
		base = hotSetSize
	}
	i := sr.fresh[c]*clients + c
	if i >= len(fresh) {
		return 0, fmt.Errorf("client %d used up its %d fresh inputs after %d jobs: the service ran over %d times the rate the input pool is sized for; raise the base rate in service.go",
			c, len(fresh)/clients, k, poolHeadroom)
	}
	sr.fresh[c]++
	return base + i, nil
}

// loadPhase is one timed stretch of the closed loop.
type loadPhase struct {
	jobs  []jobRecord
	trips []trip
}

// load runs both clients for d, or for jobs round trips each when jobs
// is positive. The load runs in slices of calEvery: at the end of each,
// both clients finish their job and wait while cal times its kernel on
// the idle daemons. With rec non-nil every request of every other job
// is wrapped in a span.
func (sr *svcRun) load(ctx context.Context, d time.Duration, jobs int, rec *Recorder, cal *calibrator) (*loadPhase, error) {
	ph := &loadPhase{}
	var cls [clients]*client
	for c := range cls {
		// svc-hot-3node pins client 0 to n1 and client 1 to n2; n3 is
		// reached only by forwarding and replication.
		cls[c] = newClient("http://" + sr.daemons[c%len(sr.daemons)].addr)
		defer cls[c].http.CloseIdleConnections()
	}
	// sent[c] is written by client c's goroutine during a slice and read
	// between slices, after the WaitGroup has ordered the two.
	var sent [clients]int
	end := time.Now().Add(d)
	more := func(c int) bool {
		if jobs > 0 {
			return sent[c] < jobs
		}
		return time.Now().Before(end)
	}
	var mu sync.Mutex
	for more(0) || more(1) {
		cal.sample()
		sliceEnd := time.Now().Add(calEvery)
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for more(c) && time.Now().Before(sliceEnd) {
					if err := ctx.Err(); err != nil {
						errs[c] = err
						return
					}
					idx, err := sr.pick(c)
					if err != nil {
						errs[c] = err
						return
					}
					jobRec := rec
					if sent[c]%2 == 1 {
						jobRec = nil
					}
					sent[c]++
					t0 := time.Now()
					jr, ok := sr.roundTrip(ctx, cls[c], idx, jobRec)
					tr := trip{client: c, at: t0, d: time.Since(t0), latency: jr.latency, ok: ok, waited: jr.forwarded}
					mu.Lock()
					ph.trips = append(ph.trips, tr)
					if ok {
						ph.jobs = append(ph.jobs, jr)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	}
	cal.sample()
	return ph, nil
}

// roundTrip submits one circuit, polls its status every millisecond
// until it is terminal and fetches the result. It reports false when
// the job failed; failures are counted, not returned.
func (sr *svcRun) roundTrip(ctx context.Context, cl *client, idx int, rec *Recorder) (jobRecord, bool) {
	sr.mu.Lock()
	sr.attempted++
	op := sr.attempted
	sr.mu.Unlock()
	fail := func(format string, args ...any) (jobRecord, bool) {
		fmt.Fprintf(os.Stderr, "job for input %d: %s\n", idx, fmt.Sprintf(format, args...))
		sr.mu.Lock()
		sr.failures++
		sr.mu.Unlock()
		return jobRecord{}, false
	}
	span := func(parent int, name string) int {
		if rec == nil {
			return 0
		}
		return rec.Begin(parent, op, name)
	}
	end := func(id int) {
		if rec != nil {
			rec.End(id)
		}
	}

	t0 := time.Now()
	jr := jobRecord{input: idx, at: t0, traced: rec != nil}
	root := span(0, "job")
	defer end(root)
	sp := span(root, "service.submit")
	id, err := cl.submit(ctx, sr.inputs[idx].body)
	end(sp)
	if err != nil {
		return fail("submit: %v", err)
	}
	var st service.Status
	for {
		sp = span(root, "service.poll")
		st, err = cl.status(ctx, id)
		end(sp)
		jr.polls++
		if err != nil {
			return fail("status: %v", err)
		}
		if st.RemoteNode != "" {
			jr.forwarded = true
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(pollInterval)
	}
	if st.State != service.StateDone || st.FinishedAt == nil || st.StartedAt == nil {
		return fail("ended %s: %s", st.State, st.Error)
	}
	sp = span(root, "service.fetch")
	got, err := cl.result(ctx, id)
	end(sp)
	if err != nil {
		return fail("result: %v", err)
	}
	jr.latency = st.FinishedAt.Sub(t0)
	jr.queueWait = st.StartedAt.Sub(st.SubmittedAt)
	jr.runTime = st.FinishedAt.Sub(*st.StartedAt)
	jr.cacheHit = st.CacheHit
	jr.finalLC = st.LC

	if sr.ck.has(idx) {
		if !sr.ck.check(idx, got) {
			fmt.Fprintf(os.Stderr, "job %s: result for hot-set circuit %d differs from core.Sequential\n", id, idx)
		}
		sr.mu.Lock()
		sr.hotJobs++
		sr.mu.Unlock()
	} else if sampled(sr.cfg.seed, idx, sampleEvery) {
		sr.mu.Lock()
		sr.samples[idx] = got
		sr.mu.Unlock()
	}
	return jr, true
}

// checkSamples compares every sampled fresh result with an in-process
// core.Sequential run on the same BLIF text.
func (sr *svcRun) checkSamples() error {
	idxs := make([]int, 0, len(sr.samples))
	for idx := range sr.samples {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		ref, err := reference(sr.inputs[idx].text)
		if err != nil {
			return err
		}
		if err := sr.ck.add(idx, ref); err != nil {
			return err
		}
		if !sr.ck.check(idx, sr.samples[idx]) {
			fmt.Fprintf(os.Stderr, "input %d: service result differs from core.Sequential\n", idx)
		}
	}
	return nil
}

// report derives the end-to-end metrics of the untraced phase.
// lc_ratio counts each distinct circuit once, as the library workloads
// do: weighting svc-hot-3node's 16 hot circuits by how often they were
// sent made it follow the seed's hot set, which spread it by 0.7%
// across seeds.
func (sr *svcRun) report(ph *loadPhase, out *outcome) {
	out.setLoad(ph.trips)
	seen := map[int]bool{}
	var initLC, finalLC int
	for _, j := range ph.jobs {
		if !seen[j.input] {
			seen[j.input] = true
			initLC += sr.inputs[j.input].initLC
			finalLC += j.finalLC
		}
	}
	out.values["lc_ratio"] = ratio(float64(finalLC), float64(initLC))
	out.notef("p50 and p90 over %d jobs on %d distinct circuits", len(ph.jobs), len(seen))
}

// traced reruns the loop for d with client spans on every other job,
// and reads the servers' counters before and after it.
func (sr *svcRun) traced(ctx context.Context, d time.Duration, out *outcome) error {
	before, err := sr.stats(ctx)
	if err != nil {
		return err
	}
	first := len(out.cal.ns)
	rec := NewRecorder()
	ph, err := sr.load(ctx, d, 0, rec, &out.cal)
	if err != nil {
		return err
	}
	after, err := sr.stats(ctx)
	if err != nil {
		return err
	}
	if err := writeSpanFile(sr.cfg, rec); err != nil {
		return err
	}

	// Span times are scaled by the traced half's calibration; a job's
	// server-side times by the samples nearest it, unless it was
	// forwarded and so waited on the owner-polling timer.
	scale := out.cal.since(first).scale()
	scaled := func(xs []float64) []float64 {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = x * scale
		}
		return ys
	}
	tot := totalsByName(rec.Spans())
	var queue, run, fwd, local, hit, plain, withSpans []float64
	polls := 0
	for _, j := range ph.jobs {
		js := out.scaleOf(trip{at: j.at, waited: j.forwarded})
		if j.traced {
			withSpans = append(withSpans, ms(j.latency)*js)
		} else {
			plain = append(plain, ms(j.latency)*js)
		}
		queue = append(queue, ms(j.queueWait)*js)
		run = append(run, ms(j.runTime)*js)
		polls += j.polls
		switch {
		case j.forwarded:
			fwd = append(fwd, ms(j.latency))
		case j.cacheHit:
			hit = append(hit, ms(j.latency)*js)
		default:
			local = append(local, ms(j.latency)*js)
		}
	}
	n := float64(len(ph.jobs))
	delta := after.minus(before)
	v := out.values
	v["service.submit_p50_ms"] = percentile(scaled(tot.durList["service.submit"]), 50)
	v["service.submit_p99_ms"] = percentile(scaled(tot.durList["service.submit"]), 99)
	v["service.queue_wait_p50_ms"] = percentile(queue, 50)
	v["service.queue_wait_p99_ms"] = percentile(queue, 99)
	v["service.run_p50_ms"] = percentile(run, 50)
	v["service.run_p99_ms"] = percentile(run, 99)
	v["service.result_fetch_p50_ms"] = percentile(scaled(tot.durList["service.fetch"]), 50)
	v["service.polls_per_job"] = ratio(float64(polls), n)
	v["service.cache_hit_ratio"] = ratio(float64(delta.hits), float64(delta.hits+delta.misses))
	v["pool.computed"] = float64(delta.computed)
	v["pool.build_ms"] = ratio(float64(delta.buildNS)*scale/1e6, float64(delta.computed))
	v["pool.faults_total"] = float64(delta.faults)
	v["cluster.forwarded_ratio"] = ratio(float64(delta.forwarded), n)
	v["cluster.forward_e2e_p50_ms"] = percentile(fwd, 50)
	v["cluster.forward_e2e_p99_ms"] = percentile(fwd, 99)
	v["cluster.local_e2e_p50_ms"] = percentile(local, 50)
	v["cluster.hit_e2e_p50_ms"] = percentile(hit, 50)
	v["cluster.replicated_in"] = float64(delta.replicatedIn)
	v["cluster.replication_pending_end"] = float64(after.replicationPending)
	v["cluster.heartbeat_failures"] = float64(delta.heartbeatFailures)
	v["cluster.remote_requeues"] = float64(delta.remoteRequeues)
	// Median latency of the traced jobs against the plain jobs
	// between them: the median is a hit or a local run, where the
	// client's spans could show.
	v["trace.overhead_frac"] = ratio(median(withSpans), median(plain)) - 1
	out.notef("traced %d jobs: %d forwarded, %d local hits, %d local runs", len(ph.jobs), len(fwd), len(hit), len(local))
	return nil
}

// counters are the /v1/stats fields the traced pass differences,
// summed over the nodes.
type counters struct {
	hits, misses, computed, buildNS, faults                    int64
	forwarded, replicatedIn, heartbeatFailures, remoteRequeues int64
	replicationPending                                         int64
}

func (a counters) minus(b counters) counters {
	return counters{
		hits:              a.hits - b.hits,
		misses:            a.misses - b.misses,
		computed:          a.computed - b.computed,
		buildNS:           a.buildNS - b.buildNS,
		faults:            a.faults - b.faults,
		forwarded:         a.forwarded - b.forwarded,
		replicatedIn:      a.replicatedIn - b.replicatedIn,
		heartbeatFailures: a.heartbeatFailures - b.heartbeatFailures,
		remoteRequeues:    a.remoteRequeues - b.remoteRequeues,
	}
}

// nodeStats is GET /v1/stats with the cluster section typed.
type nodeStats struct {
	service.StatsResponse
	Cluster *cluster.Stats `json:"cluster"`
}

func (sr *svcRun) stats(ctx context.Context) (counters, error) {
	var c counters
	for _, d := range sr.daemons {
		var s nodeStats
		if err := getJSON(ctx, sr.ctrl, "http://"+d.addr+"/v1/stats", &s); err != nil {
			return c, err
		}
		f := s.Pool.Faults
		c.hits += s.Cache.Hits
		c.misses += s.Cache.Misses
		c.computed += s.Pool.Computed
		c.buildNS += s.Pool.Build.BuildNS
		c.faults += f.WorkerPanics + f.Stragglers + f.DriverRecoveries + f.JobRetries + f.DegradedRuns + f.FailedJobs
		if cs := s.Cluster; cs != nil {
			c.forwarded += cs.Forwarded
			c.replicatedIn += cs.ReplicatedIn
			c.heartbeatFailures += cs.HeartbeatFailures
			c.remoteRequeues += cs.RemoteRequeues
			c.replicationPending += int64(cs.ReplicationPending)
		}
	}
	return c, nil
}

// probeDurable times journal appends under the always-fsync policy,
// with records the size of the workload's median admission.
func (sr *svcRun) probeDurable(out *outcome) error {
	sizes := make([]float64, len(sr.inputs))
	for i, in := range sr.inputs {
		sizes[i] = float64(len(in.body))
	}
	record := bytes.Repeat([]byte{'x'}, int(median(sizes)))
	dir := filepath.Join(sr.dir, "probe-durable")
	store, _, err := durable.Open(dir, durable.PolicyAlways)
	if err != nil {
		return err
	}
	lat := make([]float64, 0, probeAppends)
	for i := 0; i < probeAppends; i++ {
		t0 := time.Now()
		if err := store.Append(record); err != nil {
			store.Close()
			return fmt.Errorf("durable probe: %w", err)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	if err := store.Close(); err != nil {
		return err
	}
	out.values["durable.append_p50_ms"] = percentile(lat, 50)
	out.values["durable.append_p99_ms"] = percentile(lat, 99)
	return nil
}
