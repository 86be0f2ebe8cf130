package service_test

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// waitReply is one GET /v1/jobs/{id}?wait= answer.
type waitReply struct {
	code int
	st   service.Status
	took time.Duration
	err  error
}

// getWait sends GET /v1/jobs/{id}?wait=wait and decodes a 200 body.
func (h *harness) getWait(id, wait string) waitReply {
	start := time.Now()
	resp, err := http.Get(h.http.URL + "/v1/jobs/" + id + "?wait=" + wait)
	if err != nil {
		return waitReply{err: err}
	}
	defer resp.Body.Close()
	r := waitReply{code: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		r.err = json.NewDecoder(resp.Body).Decode(&r.st)
	}
	r.took = time.Since(start)
	return r
}

// goWait runs getWait on its own goroutine.
func (h *harness) goWait(id, wait string) <-chan waitReply {
	ch := make(chan waitReply, 1)
	go func() { ch <- h.getWait(id, wait) }()
	return ch
}

// holdWorker makes the pool's workers block right after each job turns
// RUNNING until the returned release function is called, and reports
// each held job's id on started.
func holdWorker(t *testing.T, h *harness) (started <-chan string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	ids := make(chan string, 8) // more than any test here submits
	h.srv.Pool().OnJobRunning = func(j *service.Job) {
		ids <- j.ID
		<-gate
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return ids, release
}

func awaitStarted(t *testing.T, started <-chan string, want string) {
	t.Helper()
	select {
	case id := <-started:
		if id != want {
			t.Fatalf("worker started %s, want %s", id, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never started", want)
	}
}

// expectPending checks that a wait is still held after a while.
func expectPending(t *testing.T, ch <-chan waitReply) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("wait returned early: code %d state %s after %v (err %v)", r.code, r.st.State, r.took, r.err)
	case <-time.After(200 * time.Millisecond):
	}
}

func recvWait(t *testing.T, ch <-chan waitReply) waitReply {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("wait never returned")
	}
	return waitReply{}
}

func TestWaitOnTerminalJobReturnsAtOnce(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1})
	sub := h.submitOK(t, service.SubmitRequest{Circuit: paperBLIF, Spec: service.Spec{Algo: "seq"}})
	h.waitTerminal(t, sub.ID, 30*time.Second)
	r := h.getWait(sub.ID, "5s")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusOK || r.st.State != service.StateDone {
		t.Fatalf("wait on a finished job: code %d state %s, want 200 DONE", r.code, r.st.State)
	}
	if r.took > 2*time.Second {
		t.Fatalf("wait on a finished job took %v", r.took)
	}
}

func TestWaitReturnsWhenQueuedJobFinishes(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1})
	started, release := holdWorker(t, h)
	first := h.submitOK(t, service.SubmitRequest{Circuit: paperBLIF, Spec: service.Spec{Algo: "seq"}})
	awaitStarted(t, started, first.ID)
	// The second job sits in the queue behind the held worker.
	second := h.submitOK(t, service.SubmitRequest{Circuit: paperBLIF, Spec: service.Spec{Algo: "seq"}})
	ch := h.goWait(second.ID, "5s")
	expectPending(t, ch)

	release()
	freed := time.Now()
	r := recvWait(t, ch)
	if r.code != http.StatusOK || r.st.State != service.StateDone {
		t.Fatalf("wait: code %d state %s (%s), want 200 DONE", r.code, r.st.State, r.st.Error)
	}
	if d := time.Since(freed); d > 3*time.Second {
		t.Fatalf("wait returned %v after the job was freed; the 5s wait must end when the job does", d)
	}
}

func TestWaitExpiresWithNonTerminalStatus(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1})
	started, _ := holdWorker(t, h)
	sub := h.submitOK(t, service.SubmitRequest{Circuit: paperBLIF, Spec: service.Spec{Algo: "seq"}})
	awaitStarted(t, started, sub.ID)
	r := h.getWait(sub.ID, "150ms")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusOK || r.st.State != service.StateRunning {
		t.Fatalf("expired wait: code %d state %s, want 200 RUNNING", r.code, r.st.State)
	}
	if r.took < 150*time.Millisecond {
		t.Fatalf("wait returned after %v, before its 150ms", r.took)
	}
}

func TestWaitRejectsBadValue(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1})
	sub := h.submitOK(t, service.SubmitRequest{Circuit: paperBLIF, Spec: service.Spec{Algo: "seq"}})
	for _, v := range []string{"soon", "5", "-1s"} {
		if r := h.getWait(sub.ID, v); r.err != nil || r.code != http.StatusBadRequest {
			t.Errorf("wait=%q: code %d (err %v), want 400", v, r.code, r.err)
		}
	}
}

func TestWaitReleasedByShutdown(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1, DrainGrace: 10 * time.Second})
	started, release := holdWorker(t, h)
	sub := h.submitOK(t, service.SubmitRequest{Circuit: paperBLIF, Spec: service.Spec{Algo: "seq"}})
	awaitStarted(t, started, sub.ID)
	ch := h.goWait(sub.ID, "20s")
	expectPending(t, ch)

	// Shutdown blocks for the held job's grace; the wait must not.
	drained := make(chan struct{})
	go func() {
		h.srv.Shutdown()
		close(drained)
	}()
	r := recvWait(t, ch)
	if r.code != http.StatusServiceUnavailable || r.took > 5*time.Second {
		t.Fatalf("pending wait at drain: code %d after %v, want 503 promptly", r.code, r.took)
	}
	// A new wait on the unfinished job is refused at once too, so a
	// caller cannot spin on a draining server.
	if r := h.getWait(sub.ID, "20s"); r.err != nil || r.code != http.StatusServiceUnavailable || r.took > 5*time.Second {
		t.Fatalf("wait while draining: code %d after %v (err %v), want 503 at once", r.code, r.took, r.err)
	}

	release()
	<-drained
	// The job finished within its grace; a wait on it now answers 200.
	if r := h.getWait(sub.ID, "20s"); r.err != nil || r.code != http.StatusOK || !r.st.State.Terminal() {
		t.Fatalf("wait on a finished job while draining: code %d state %s (err %v), want 200 terminal",
			r.code, r.st.State, r.err)
	}
}
