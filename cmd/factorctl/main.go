// Command factorctl is the client CLI for factord.
//
// Usage:
//
//	factorctl [-addr URL] [-retries N] submit [-algo seq|repl|part|lshape]
//	          [-p N] [-format blif|eqn] [-name NAME] [-deadline-ms N]
//	          [-verify] [-wait] [-timeout D] FILE
//	factorctl [-addr URL] [-retries N] status JOB
//	factorctl [-addr URL] [-retries N] wait [-timeout D] JOB
//	factorctl [-addr URL] result [-format blif|eqn] [-o FILE] JOB
//	factorctl [-addr URL] cancel JOB
//	factorctl [-addr URL] [-retries N] stats
//	factorctl [-addr URL] [-retries N] peers
//
// The server address defaults to $FACTORD_ADDR, then
// http://127.0.0.1:8455. -addr (and $FACTORD_ADDR) accepts a
// comma-separated list of base URLs; against a cluster, any node
// serves any request, and the client fails over to the next address
// when one stops answering.
//
// Submissions and polls retry on 429 (queue full), 503 (draining) and
// transport errors with jittered exponential backoff, honoring the
// server's Retry-After header — both delta-seconds and HTTP-date
// forms — when present; -retries 0 disables.
//
// wait (and submit -wait) asks the server to hold each status request
// until the job finishes (GET /v1/jobs/{id}?wait=), so the final
// status prints as soon as the server has it. It waits forever by
// default; -timeout bounds the overall wait, printing the last
// observed status and exiting non-zero on expiry.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func defaultAddr() string {
	if a := os.Getenv("FACTORD_ADDR"); a != "" {
		return a
	}
	return "http://127.0.0.1:8455"
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: factorctl [-addr URL[,URL...]] {submit|status|wait|result|cancel|stats|peers} ...\n")
	os.Exit(2)
}

func main() {
	var addr string
	var retries int
	flag.StringVar(&addr, "addr", defaultAddr(), "factord base URL")
	flag.IntVar(&retries, "retries", 4, "attempts to retry retriable requests (0 disables)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	var bases []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			bases = append(bases, strings.TrimRight(a, "/"))
		}
	}
	if len(bases) == 0 {
		usage()
	}
	c := &client{bases: bases, retries: retries}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(c, args)
	case "status":
		err = cmdStatus(c, args)
	case "wait":
		err = cmdWait(c, args)
	case "result":
		err = cmdResult(c, args)
	case "cancel":
		err = cmdCancel(c, args)
	case "stats":
		err = cmdStats(c, args)
	case "peers":
		err = cmdPeers(c, args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "factorctl: %v\n", err)
		os.Exit(1)
	}
}

// client wraps the factord HTTP API. With more than one base URL it
// talks to bases[cur] and rotates to the next on transport errors —
// against a cluster, any node serves any request, so failover is just
// asking a different one.
type client struct {
	bases   []string
	cur     int
	http    http.Client
	retries int
}

// base is the currently-preferred server.
func (c *client) base() string { return c.bases[c.cur] }

// failover rotates to the next server after a transport error.
func (c *client) failover() {
	if len(c.bases) > 1 {
		c.cur = (c.cur + 1) % len(c.bases)
		fmt.Fprintf(os.Stderr, "factorctl: failing over to %s\n", c.base())
	}
}

// Backoff bounds for retriable requests.
const (
	ctlBaseDelay = 200 * time.Millisecond
	ctlMaxDelay  = 5 * time.Second
)

// retriable reports whether an attempt's outcome is worth retrying:
// transport-level errors (server restarting, connection reset) and
// the server's load-shedding responses.
func retriable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable
}

// backoff picks the sleep before retry number attempt (0-based):
// the server's Retry-After if it sent one, otherwise exponential
// backoff with jitter in [d/2, d] so a herd of clients spreads out.
func backoff(attempt int, resp *http.Response) time.Duration {
	if resp != nil {
		if d, ok := retryAfterDelay(resp.Header.Get("Retry-After"), time.Now()); ok {
			return d
		}
	}
	d := ctlBaseDelay << attempt
	if d > ctlMaxDelay || d <= 0 {
		d = ctlMaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// retryAfterDelay parses a Retry-After header value, which RFC 9110
// allows in two forms: delta-seconds ("2") and an HTTP-date ("Fri, 07
// Aug 2026 09:30:00 GMT"). A date in the past clamps to zero (retry
// immediately) rather than being treated as malformed.
func retryAfterDelay(ra string, now time.Time) (time.Duration, bool) {
	ra = strings.TrimSpace(ra)
	if ra == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(ra); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// doRetry runs attempt (which must build a fresh request each call,
// including its body) until it returns a non-retriable outcome or the
// retry budget is spent. The final response (or error) is the
// caller's to handle either way.
func (c *client) doRetry(attempt func() (*http.Response, error)) (*http.Response, error) {
	for n := 0; ; n++ {
		resp, err := attempt()
		if err != nil {
			// Transport failure: this server may be gone for good;
			// the retry (if any) goes to the next one.
			c.failover()
		}
		if n >= c.retries || !retriable(resp, err) {
			return resp, err
		}
		d := backoff(n, resp)
		if resp != nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
		}
		fmt.Fprintf(os.Stderr, "factorctl: retrying in %v (%s)\n", d.Round(time.Millisecond), attemptOutcome(resp, err))
		time.Sleep(d)
	}
}

// attemptOutcome describes a retriable outcome for the progress line.
func attemptOutcome(resp *http.Response, err error) string {
	if err != nil {
		return err.Error()
	}
	return resp.Status
}

// apiErr extracts the server's {"error": ...} body for non-2xx codes.
func apiErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

func (c *client) getJSON(path string, out any) error {
	resp, err := c.doRetry(func() (*http.Response, error) {
		return c.http.Get(c.base() + path)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) submit(req service.SubmitRequest) (service.SubmitResponse, error) {
	var out service.SubmitResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := c.doRetry(func() (*http.Response, error) {
		return c.http.Post(c.base()+"/v1/jobs", "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests {
			return out, fmt.Errorf("%w (Retry-After: %ss)", apiErr(resp), resp.Header.Get("Retry-After"))
		}
		return out, apiErr(resp)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func (c *client) status(id string) (service.Status, error) {
	var st service.Status
	err := c.getJSON("/v1/jobs/"+id, &st)
	return st, err
}

// waitTimeoutError reports that -timeout expired before the job
// reached a terminal state; it carries the last observed status so the
// caller can still print it before exiting non-zero.
type waitTimeoutError struct {
	st      service.Status
	timeout time.Duration
}

func (e *waitTimeoutError) Error() string {
	return fmt.Sprintf("job %s still %s after %v", e.st.ID, e.st.State, e.timeout)
}

// waitTerminal returns once the job reaches a terminal state or, with
// timeout > 0, the overall bound expires (returning *waitTimeoutError
// with the last observed status). It sends status requests back to
// back, each asking the server to hold it until the job finishes, for
// at most the remaining timeout or service.MaxStatusWait.
func (c *client) waitTerminal(id string, timeout time.Duration) (service.Status, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		wait := service.MaxStatusWait
		if !deadline.IsZero() {
			wait = max(0, min(wait, time.Until(deadline)))
		}
		var st service.Status
		err := c.getJSON("/v1/jobs/"+id+"?wait="+wait.String(), &st)
		if err != nil || st.State.Terminal() {
			return st, err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return st, &waitTimeoutError{st: st, timeout: timeout}
		}
	}
}

// finishWait renders waitTerminal's outcome: the final (or last
// observed) status on stdout, and a non-nil error — timeout or a
// non-DONE terminal state — for a non-zero exit.
func finishWait(st service.Status, err error) error {
	if wte, ok := err.(*waitTimeoutError); ok {
		printJSON(wte.st)
		return wte
	}
	if err != nil {
		return err
	}
	printJSON(st)
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func cmdSubmit(c *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		algo       = fs.String("algo", "seq", "algorithm: seq|repl|part|lshape")
		p          = fs.Int("p", 4, "virtual processor count (parallel algorithms)")
		format     = fs.String("format", "blif", "circuit format: blif|eqn")
		name       = fs.String("name", "", "circuit name (default: model name / file stem)")
		deadlineMS = fs.Int("deadline-ms", 0, "job deadline in ms (0: server default)")
		verify     = fs.Bool("verify", false, "request a post-run equivalence check")
		wait       = fs.Bool("wait", false, "wait until the job finishes and print its final status")
		timeout    = fs.Duration("timeout", 0, "overall bound on -wait (0: wait forever)")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("submit needs exactly one circuit file")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req := service.SubmitRequest{
		Name:    *name,
		Format:  *format,
		Circuit: string(data),
		Spec: service.Spec{
			Algo:       *algo,
			P:          *p,
			DeadlineMS: *deadlineMS,
			Verify:     *verify,
		},
	}
	sub, err := c.submit(req)
	if err != nil {
		return err
	}
	if !*wait {
		printJSON(sub)
		return nil
	}
	return finishWait(c.waitTerminal(sub.ID, *timeout))
}

func cmdStatus(c *client, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("status needs exactly one job id")
	}
	st, err := c.status(fs.Arg(0))
	if err != nil {
		return err
	}
	printJSON(st)
	return nil
}

func cmdWait(c *client, args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	timeout := fs.Duration("timeout", 0, "overall bound on the wait (0: wait forever)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("wait needs exactly one job id")
	}
	return finishWait(c.waitTerminal(fs.Arg(0), *timeout))
}

func cmdResult(c *client, args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	format := fs.String("format", "blif", "output format: blif|eqn")
	out := fs.String("o", "", "write to file instead of stdout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("result needs exactly one job id")
	}
	resp, err := c.http.Get(c.base() + "/v1/jobs/" + fs.Arg(0) + "/result?format=" + *format)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

func cmdCancel(c *client, args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cancel needs exactly one job id")
	}
	req, err := http.NewRequest(http.MethodDelete, c.base()+"/v1/jobs/"+fs.Arg(0), nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	printJSON(st)
	return nil
}

func cmdStats(c *client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.Parse(args)
	var st service.StatsResponse
	if err := c.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	printJSON(st)
	return nil
}

func cmdPeers(c *client, args []string) error {
	fs := flag.NewFlagSet("peers", flag.ExitOnError)
	fs.Parse(args)
	var mr cluster.MembersResponse
	if err := c.getJSON("/v1/cluster/members", &mr); err != nil {
		return err
	}
	printJSON(mr)
	return nil
}
