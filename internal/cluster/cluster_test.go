package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blif"
	"repro/internal/cluster"
	"repro/internal/cluster/partitiontest"
	"repro/internal/cluster/ring"
	"repro/internal/equiv"
	"repro/internal/service"
)

// paperBLIF is the paper's running example: F and G share the
// divisors (a+b+c) and (f+de), so factorization has real work to do.
const paperBLIF = `.model paperf
.inputs a b c d e f g
.outputs F G
.names a b c d e f g F
1----1- 1
-1---1- 1
1-----1 1
--1---1 1
1--11-- 1
-1-11-- 1
--111-- 1
.names a b c d e f g G
1----1- 1
-1---1- 1
--1--1- 1
1-----1 1
-1----1 1
.end
`

// testNode is one running cluster member.
type testNode struct {
	id     string
	srv    *service.Server
	node   *cluster.Node
	ts     *httptest.Server
	addr   string
	cancel context.CancelFunc
	// polls counts the status requests the node served.
	polls *statusCounter
}

// statusCounter wraps a node's handler and counts the
// GET /v1/jobs/{id} requests it serves, per job id.
type statusCounter struct {
	next http.Handler
	mu   sync.Mutex
	// n is guarded by mu.
	n map[string]int
}

func (c *statusCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok && r.Method == http.MethodGet && !strings.Contains(id, "/") {
		c.mu.Lock()
		c.n[id]++
		c.mu.Unlock()
	}
	c.next.ServeHTTP(w, r)
}

// count reports how many status requests for job id were served.
func (c *statusCounter) count(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[id]
}

func (tn *testNode) url() string { return "http://" + tn.addr }

// testCluster spins up len(ids) nodes over the partition net, the
// later ones seeded through the first.
type testCluster struct {
	t     *testing.T
	pnet  *partitiontest.Net
	nodes map[string]*testNode
	ids   []string
}

func startCluster(t *testing.T, ids []string) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, pnet: partitiontest.New(), nodes: map[string]*testNode{}, ids: ids}
	var seed []string
	for _, id := range ids {
		tn := tc.startNode(id, seed)
		tc.nodes[id] = tn
		if seed == nil {
			seed = []string{tn.addr}
		}
	}
	return tc
}

func (tc *testCluster) startNode(id string, seeds []string) *testNode {
	tc.t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	addr := l.Addr().String()
	tc.pnet.Register(id, addr)

	ctx, cancel := context.WithCancel(context.Background())
	scfg := service.DefaultConfig()
	scfg.Workers = 2
	srv := service.NewServer(ctx, scfg)
	node := cluster.New(ctx, cluster.Config{
		NodeID:            id,
		Addr:              addr,
		Seeds:             seeds,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
		DeadAfter:         400 * time.Millisecond,
		ReplicateInterval: 25 * time.Millisecond,
		HTTPTimeout:       time.Second,
		Transport:         tc.pnet.Transport(id),
	}, srv)
	polls := &statusCounter{next: node.Handler(srv.Handler()), n: map[string]int{}}
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: polls}}
	ts.Start()
	srv.Start()
	node.Start()
	tn := &testNode{id: id, srv: srv, node: node, ts: ts, addr: addr, cancel: cancel, polls: polls}
	tc.t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
		cancel()
	})
	return tn
}

// ---- HTTP helpers ----

func submitTo(t *testing.T, tn *testNode, req service.SubmitRequest) service.SubmitResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tn.url()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s: got %s, want 202: %s", tn.id, resp.Status, data)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func statusOf(t *testing.T, tn *testNode, id string) service.Status {
	t.Helper()
	resp, err := http.Get(tn.url() + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s on %s: got %s", id, tn.id, resp.Status)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, tn *testNode, id string, within time.Duration) service.Status {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := statusOf(t, tn, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s on %s still %s after %v", id, tn.id, st.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wireStats mirrors the parts of /v1/stats the tests read.
type wireStats struct {
	Cache   service.CacheStats `json:"cache"`
	Pool    service.PoolStats  `json:"pool"`
	Cluster cluster.Stats      `json:"cluster"`
}

func statsOf(t *testing.T, tn *testNode) wireStats {
	t.Helper()
	resp, err := http.Get(tn.url() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ws wireStats
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	return ws
}

// waitRing polls until the node's routable ring equals want (sorted).
func (tc *testCluster) waitRing(tn *testNode, want []string, within time.Duration) {
	tc.t.Helper()
	deadline := time.Now().Add(within)
	for {
		got := statsOf(tc.t, tn).Cluster.Ring
		if strings.Join(got, ",") == strings.Join(want, ",") {
			return
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("node %s ring = %v, want %v after %v", tn.id, got, want, within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (tc *testCluster) waitConverged(within time.Duration) {
	tc.t.Helper()
	for _, id := range tc.ids {
		tc.waitRing(tc.nodes[id], tc.ids, within)
	}
}

// specFor returns a spec whose canonical key (for paperBLIF) is owned
// by owner on a ring over ids; varying MaxVisits varies the key
// without changing the computed function. The returned key is the
// expected CanonicalKey, asserted against the submit response.
func specFor(t *testing.T, ids []string, owner string) (service.Spec, string) {
	t.Helper()
	nw, err := blif.Read(strings.NewReader(paperBLIF))
	if err != nil {
		t.Fatal(err)
	}
	r := ring.New(ids, 0)
	for visits := 100000; visits < 100200; visits++ {
		spec := service.Spec{Algo: "seq", MaxVisits: visits}.WithDefaults()
		key := service.CanonicalKey(nw, spec)
		if r.Owner(key) == owner {
			return spec, key
		}
	}
	t.Fatalf("no spec found whose key lands on %s", owner)
	return service.Spec{}, ""
}

func checkEquivalent(t *testing.T, tn *testNode, jobID string) {
	t.Helper()
	orig, err := blif.Read(strings.NewReader(paperBLIF))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(tn.url() + "/v1/jobs/" + jobID + "/result?format=blif")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s on %s: got %s", jobID, tn.id, resp.Status)
	}
	factored, err := blif.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := equiv.Check(orig, factored, equiv.Options{}); err != nil {
		t.Fatalf("result of %s on %s not equivalent: %v", jobID, tn.id, err)
	}
}

// ---- tests ----

func TestAnyNodeServesAndForwards(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)

	// One job per node, each with a key owned by a *different* node,
	// so every submission exercises the forwarding path.
	jobs := map[string]string{} // node id -> job id
	for i, id := range ids {
		owner := ids[(i+1)%len(ids)]
		spec, key := specFor(t, ids, owner)
		sub := submitTo(t, tc.nodes[id], service.SubmitRequest{
			Format: "blif", Circuit: paperBLIF, Spec: spec,
		})
		if sub.Key != key {
			t.Fatalf("server key %s != locally computed %s", sub.Key, key)
		}
		jobs[id] = sub.ID
	}
	for id, jid := range jobs {
		st := waitTerminal(t, tc.nodes[id], jid, 10*time.Second)
		if st.State != service.StateDone {
			t.Fatalf("job %s on %s: %s (%s)", jid, id, st.State, st.Error)
		}
		checkEquivalent(t, tc.nodes[id], jid)
	}
	var forwarded int64
	for _, id := range ids {
		forwarded += statsOf(t, tc.nodes[id]).Cluster.Forwarded
	}
	if forwarded < int64(len(ids)) {
		t.Fatalf("forwarded = %d, want >= %d (every job keyed to a peer)", forwarded, len(ids))
	}
}

func TestReplicationServesHitOnAnotherNode(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)

	// Compute on n1 (n1 owns the key, so it runs and caches locally).
	spec, key := specFor(t, ids, "n1")
	sub := submitTo(t, tc.nodes["n1"], service.SubmitRequest{Format: "blif", Circuit: paperBLIF, Spec: spec})
	if sub.Key != key {
		t.Fatalf("server key %s != locally computed %s", sub.Key, key)
	}
	st := waitTerminal(t, tc.nodes["n1"], sub.ID, 10*time.Second)
	if st.State != service.StateDone {
		t.Fatalf("seed job: %s (%s)", st.State, st.Error)
	}

	// Wait one replication round: the entry must arrive at n2.
	deadline := time.Now().Add(5 * time.Second)
	for statsOf(t, tc.nodes["n2"]).Cluster.ReplicatedIn == 0 {
		if time.Now().After(deadline) {
			t.Fatal("entry never replicated to n2")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The same submission on n2 must now be a *local* cache hit: no
	// forwarding hop, served from the replicated entry.
	sub2 := submitTo(t, tc.nodes["n2"], service.SubmitRequest{Format: "blif", Circuit: paperBLIF, Spec: spec})
	st2 := waitTerminal(t, tc.nodes["n2"], sub2.ID, 10*time.Second)
	if st2.State != service.StateDone || !st2.CacheHit {
		t.Fatalf("replicated submission: state=%s cache_hit=%v (%s)", st2.State, st2.CacheHit, st2.Error)
	}
	if st2.RemoteNode != "" {
		t.Fatalf("replicated hit was forwarded to %s instead of served locally", st2.RemoteNode)
	}
	checkEquivalent(t, tc.nodes["n2"], sub2.ID)
}

func TestPartitionDegradesLocallyAndHeals(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)

	// Cut n1 off, then immediately submit a job to n1 whose key n2
	// owns: n1's view still lists n2, forwarding fails on the dead
	// link, and the job must recover onto n1's own queue.
	tc.pnet.Partition([]string{"n1"}, []string{"n2", "n3"})
	spec, _ := specFor(t, ids, "n2")
	sub := submitTo(t, tc.nodes["n1"], service.SubmitRequest{Format: "blif", Circuit: paperBLIF, Spec: spec})
	st := waitTerminal(t, tc.nodes["n1"], sub.ID, 10*time.Second)
	if st.State != service.StateDone {
		t.Fatalf("partitioned job: %s (%s)", st.State, st.Error)
	}
	checkEquivalent(t, tc.nodes["n1"], sub.ID)
	if rq := statsOf(t, tc.nodes["n1"]).Cluster.RemoteRequeues; rq < 1 {
		t.Fatalf("remote_requeues = %d, want >= 1 (forward must have failed onto the local queue)", rq)
	}

	// Suspicion timeouts shrink each side's ring to its partition.
	tc.waitRing(tc.nodes["n1"], []string{"n1"}, 5*time.Second)
	tc.waitRing(tc.nodes["n2"], []string{"n2", "n3"}, 5*time.Second)
	tc.waitRing(tc.nodes["n3"], []string{"n2", "n3"}, 5*time.Second)

	// Heal: every view must reconverge to the full ring.
	tc.pnet.Heal()
	tc.waitConverged(5 * time.Second)
}

func TestOwnerUnreachableMidJobRequeuesWithoutLoss(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)

	// Stall n2's pool so the forwarded job is RUNNING there when the
	// node drops off the network.
	block := make(chan struct{})
	running := make(chan struct{}, 8)
	tc.nodes["n2"].srv.Pool().OnJobRunning = func(*service.Job) {
		running <- struct{}{}
		<-block
	}
	t.Cleanup(func() { close(block) })

	spec, _ := specFor(t, ids, "n2")
	sub := submitTo(t, tc.nodes["n1"], service.SubmitRequest{Format: "blif", Circuit: paperBLIF, Spec: spec})
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded job never started on n2")
	}

	// Kill n2's network presence mid-job. The watcher on n1 loses its
	// poll target and must requeue locally.
	tc.pnet.Partition([]string{"n2"}, []string{"n1", "n3"})
	st := waitTerminal(t, tc.nodes["n1"], sub.ID, 15*time.Second)
	if st.State != service.StateDone {
		t.Fatalf("job after owner loss: %s (%s)", st.State, st.Error)
	}
	if st.RemoteNode != "" {
		t.Fatalf("finished job still pinned to remote node %s", st.RemoteNode)
	}
	checkEquivalent(t, tc.nodes["n1"], sub.ID)
	if rq := statsOf(t, tc.nodes["n1"]).Cluster.RemoteRequeues; rq < 1 {
		t.Fatalf("remote_requeues = %d, want >= 1", rq)
	}
}

// holdOwner makes node's pool block each job right after it turns
// RUNNING until release is called, and reports each held job's id (on
// that node) on started.
func holdOwner(t *testing.T, tn *testNode) (started <-chan string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	ids := make(chan string, 8) // more than any test here forwards
	tn.srv.Pool().OnJobRunning = func(j *service.Job) {
		ids <- j.ID
		<-gate
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return ids, release
}

func awaitOwnerJob(t *testing.T, started <-chan string) string {
	t.Helper()
	select {
	case rid := <-started:
		return rid
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded job never started on its owner")
	}
	return ""
}

func TestCancelForwardedJobWhileOwnerWaits(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)
	n1, n2 := tc.nodes["n1"], tc.nodes["n2"]
	started, release := holdOwner(t, n2)

	spec, _ := specFor(t, ids, "n2")
	sub := submitTo(t, n1, service.SubmitRequest{Format: "blif", Circuit: paperBLIF, Spec: spec})
	rid := awaitOwnerJob(t, started)
	computed := statsOf(t, n1).Pool.Computed

	// The watcher on n1 is now inside a waiting status request to n2
	// almost all the time, so the cancel lands during a peer call.
	deadline := time.Now().Add(5 * time.Second)
	for n2.polls.count(rid) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("n1 never asked n2 for the forwarded job's status")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, n1.url()+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if st := waitTerminal(t, n1, sub.ID, 10*time.Second); st.State != service.StateCancelled {
		t.Fatalf("cancelled forwarded job on n1: %s (%s), want CANCELLED", st.State, st.Error)
	}
	release()
	if st := waitTerminal(t, n2, rid, 10*time.Second); st.State != service.StateCancelled {
		t.Fatalf("owner's copy on n2: %s (%s), want CANCELLED", st.State, st.Error)
	}
	if got := statsOf(t, n1).Pool.Computed; got != computed {
		t.Fatalf("n1 computed %d jobs after the cancel (was %d): the cancelled job re-ran locally", got, computed)
	}
}

func TestForwardedJobFinishesWithOwner(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)
	n1, n2 := tc.nodes["n1"], tc.nodes["n2"]
	started, release := holdOwner(t, n2)

	spec, _ := specFor(t, ids, "n2")
	sub := submitTo(t, n1, service.SubmitRequest{Format: "blif", Circuit: paperBLIF, Spec: spec})
	rid := awaitOwnerJob(t, started)
	time.Sleep(300 * time.Millisecond)
	release()

	st1 := waitTerminal(t, n1, sub.ID, 10*time.Second)
	// Read before this test asks n2 itself: every request so far is
	// the watcher's.
	polls := n2.polls.count(rid)
	st2 := statusOf(t, n2, rid)
	if st1.State != service.StateDone || st2.State != service.StateDone {
		t.Fatalf("forwarded job: n1 %s (%s), n2 %s (%s), want DONE on both",
			st1.State, st1.Error, st2.State, st2.Error)
	}
	// The owner holds each of the watcher's status requests until the
	// job finishes or 500 ms (half the 1 s HTTPTimeout) pass, so a
	// 300 ms job costs one request, or two on a slow host ...
	if polls > 2 {
		t.Fatalf("n2 served %d status requests for the forwarded job, want at most 2", polls)
	}
	// ... and the accepting node finishes within a round trip of the
	// owner. The bound is half a 100 ms polling period, which a
	// watcher that polls on a timer would miss.
	if lag := st1.FinishedAt.Sub(*st2.FinishedAt); lag > 50*time.Millisecond {
		t.Fatalf("n1 finished %v after n2, want under 50ms", lag)
	}
	checkEquivalent(t, n1, sub.ID)
}

func TestHandoffSyncsCacheToRejoinedNode(t *testing.T) {
	ids := []string{"n1", "n2"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)

	// Partition long enough for each side to declare the other dead.
	tc.pnet.Partition([]string{"n1"}, []string{"n2"})
	tc.waitRing(tc.nodes["n1"], []string{"n1"}, 5*time.Second)
	tc.waitRing(tc.nodes["n2"], []string{"n2"}, 5*time.Second)

	// Compute on n1 while n2 is unreachable: nothing replicates.
	spec, _ := specFor(t, []string{"n1"}, "n1")
	sub := submitTo(t, tc.nodes["n1"], service.SubmitRequest{Format: "blif", Circuit: paperBLIF, Spec: spec})
	st := waitTerminal(t, tc.nodes["n1"], sub.ID, 10*time.Second)
	if st.State != service.StateDone {
		t.Fatalf("partitioned job: %s (%s)", st.State, st.Error)
	}

	// Heal: the dead->alive transition must trigger a cache handoff,
	// landing the partition-era entry on n2.
	tc.pnet.Heal()
	tc.waitConverged(5 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for statsOf(t, tc.nodes["n2"]).Cache.Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partition-era cache entry never handed off to n2")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestMembersEndpointAndLeave(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	tc := startCluster(t, ids)
	tc.waitConverged(5 * time.Second)

	resp, err := http.Get(tc.nodes["n1"].url() + "/v1/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr cluster.MembersResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Self != "n1" || len(mr.Members) != 3 {
		t.Fatalf("members on n1: self=%s members=%d, want n1/3", mr.Self, len(mr.Members))
	}
	for _, m := range mr.Members {
		if m.State != "alive" {
			t.Fatalf("member %s is %s, want alive", m.ID, m.State)
		}
	}

	// A clean departure drops the node from peers' rings immediately.
	tc.nodes["n3"].node.Stop()
	tc.waitRing(tc.nodes["n1"], []string{"n1", "n2"}, 5*time.Second)
	tc.waitRing(tc.nodes["n2"], []string{"n1", "n2"}, 5*time.Second)
}
