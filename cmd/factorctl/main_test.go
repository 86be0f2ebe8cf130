package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

func TestRetriableClassification(t *testing.T) {
	cases := []struct {
		code int
		want bool
	}{
		{http.StatusOK, false},
		{http.StatusAccepted, false},
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
		{http.StatusTooManyRequests, true},
		{http.StatusServiceUnavailable, true},
	}
	for _, c := range cases {
		if got := retriable(&http.Response{StatusCode: c.code}, nil); got != c.want {
			t.Errorf("retriable(%d) = %v, want %v", c.code, got, c.want)
		}
	}
	if !retriable(nil, http.ErrHandlerTimeout) {
		t.Error("transport errors must be retriable")
	}
}

func TestBackoffHonorsRetryAfter(t *testing.T) {
	resp := &http.Response{Header: http.Header{"Retry-After": []string{"2"}}}
	if d := backoff(0, resp); d != 2*time.Second {
		t.Fatalf("backoff with Retry-After: %v, want 2s", d)
	}
}

func TestRetryAfterDelayParsesBothForms(t *testing.T) {
	now := time.Date(2026, 8, 7, 9, 30, 0, 0, time.UTC)
	cases := []struct {
		ra   string
		want time.Duration
		ok   bool
	}{
		{"2", 2 * time.Second, true},
		{"0", 0, true},
		{" 3 ", 3 * time.Second, true},
		{"-1", 0, false},
		{"", 0, false},
		{"soon", 0, false},
		// RFC 9110 HTTP-date: IMF-fixdate, then the obsolete RFC 850
		// and ANSI C asctime forms http.ParseTime also accepts.
		{"Fri, 07 Aug 2026 09:30:05 GMT", 5 * time.Second, true},
		{"Friday, 07-Aug-26 09:31:00 GMT", time.Minute, true},
		{"Fri Aug  7 09:30:30 2026", 30 * time.Second, true},
		// A date in the past clamps to zero instead of failing.
		{"Fri, 07 Aug 2026 09:29:00 GMT", 0, true},
	}
	for _, c := range cases {
		got, ok := retryAfterDelay(c.ra, now)
		if got != c.want || ok != c.ok {
			t.Errorf("retryAfterDelay(%q) = (%v, %v), want (%v, %v)", c.ra, got, ok, c.want, c.ok)
		}
	}
}

func TestBackoffHonorsHTTPDateRetryAfter(t *testing.T) {
	// A date ~2s out must beat the exponential schedule. The window
	// tolerates the wall-clock skew between header construction and
	// the backoff call.
	resp := &http.Response{Header: http.Header{
		"Retry-After": []string{time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)},
	}}
	d := backoff(0, resp)
	if d < time.Second || d > 2*time.Second {
		t.Fatalf("backoff with HTTP-date Retry-After: %v, want ~2s", d)
	}
}

func TestFailoverRotatesOnTransportError(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-9","state":"QUEUED","key":"k"}`))
	}))
	defer ts.Close()
	// First base is a dead listener; the client must rotate to the
	// live one and succeed within its retry budget.
	c := &client{bases: []string{"http://127.0.0.1:1", ts.URL}, retries: 2}
	sub, err := c.submit(service.SubmitRequest{Circuit: ".model m\n.end\n"})
	if err != nil {
		t.Fatalf("submit with failover: %v", err)
	}
	if sub.ID != "job-9" || calls != 1 {
		t.Fatalf("got id %q after %d live calls, want job-9 after 1", sub.ID, calls)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	for n := 0; n < 12; n++ {
		d := backoff(n, nil)
		lo, hi := ctlBaseDelay<<n/2, ctlBaseDelay<<n
		if hi > ctlMaxDelay || hi <= 0 {
			lo, hi = ctlMaxDelay/2, ctlMaxDelay
		}
		if d < lo || d > hi {
			t.Fatalf("backoff(%d) = %v, want in [%v, %v]", n, d, lo, hi)
		}
	}
}

func TestSubmitRetriesUntilAdmitted(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-1","state":"QUEUED","key":"k"}`))
	}))
	defer ts.Close()
	c := &client{bases: []string{ts.URL}, retries: 4}
	sub, err := c.submit(service.SubmitRequest{Circuit: ".model m\n.end\n"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.ID != "job-1" || calls != 3 {
		t.Fatalf("got id %q after %d calls, want job-1 after 3", sub.ID, calls)
	}
}

func TestSubmitStopsWhenBudgetSpent(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining"}`))
	}))
	defer ts.Close()
	c := &client{bases: []string{ts.URL}, retries: 2}
	if _, err := c.submit(service.SubmitRequest{Circuit: "x"}); err == nil {
		t.Fatal("submit against a draining server must fail after its retries")
	}
	if calls != 3 {
		t.Fatalf("made %d calls, want 3 (initial + 2 retries)", calls)
	}
}

func TestWaitTimeoutReturnsLastStatus(t *testing.T) {
	var waits []time.Duration
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the request for its wait, as factord does for a job
		// that does not finish.
		d, err := time.ParseDuration(r.URL.Query().Get("wait"))
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		waits = append(waits, d)
		time.Sleep(d)
		w.Write([]byte(`{"id":"job-7","state":"RUNNING"}`))
	}))
	defer ts.Close()
	c := &client{bases: []string{ts.URL}}
	start := time.Now()
	st, err := c.waitTerminal("job-7", 50*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wait did not respect its bound (took %v)", elapsed)
	}
	wte, ok := err.(*waitTimeoutError)
	if !ok {
		t.Fatalf("err = %v, want *waitTimeoutError", err)
	}
	if wte.st.State != service.StateRunning || st.State != service.StateRunning {
		t.Fatalf("last observed state = %s/%s, want RUNNING", wte.st.State, st.State)
	}
	// Each request waits out at most the remaining timeout, so the
	// first one spends nearly all of it and the client never spins.
	if len(waits) == 0 || len(waits) > 3 {
		t.Fatalf("sent %d status requests (waits %v), want 1 to 3", len(waits), waits)
	}
	for _, d := range waits {
		if d > 50*time.Millisecond {
			t.Fatalf("asked the server to wait %v, beyond the 50ms timeout", d)
		}
	}
	// finishWait must propagate the timeout as a failure for the
	// non-zero exit.
	if err := finishWait(st, wte); err != wte {
		t.Fatalf("finishWait(timeout) = %v, want the timeout error", err)
	}
}

func TestWaitWithoutTimeoutStopsAtTerminal(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if got, want := r.URL.Query().Get("wait"), service.MaxStatusWait.String(); got != want {
			t.Errorf("wait = %q, want the server cap %q", got, want)
		}
		if calls < 3 {
			w.Write([]byte(`{"id":"job-8","state":"QUEUED"}`))
			return
		}
		w.Write([]byte(`{"id":"job-8","state":"DONE"}`))
	}))
	defer ts.Close()
	c := &client{bases: []string{ts.URL}}
	st, err := c.waitTerminal("job-8", 0)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("waitTerminal = (%s, %v), want DONE", st.State, err)
	}
	if err := finishWait(st, nil); err != nil {
		t.Fatalf("finishWait(DONE) = %v, want nil", err)
	}
	// A terminal non-DONE state is still an error exit.
	if err := finishWait(service.Status{ID: "job-8", State: service.StateFailed}, nil); err == nil {
		t.Fatal("finishWait(FAILED) must return an error")
	}
}

func TestNonRetriableErrorIsImmediate(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad circuit"}`))
	}))
	defer ts.Close()
	c := &client{bases: []string{ts.URL}, retries: 4}
	if _, err := c.submit(service.SubmitRequest{Circuit: "x"}); err == nil {
		t.Fatal("a 400 must fail immediately")
	}
	if calls != 1 {
		t.Fatalf("made %d calls, want 1 (no retries on 400)", calls)
	}
}
