package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/service"
)

// daemon is one factord child process.
type daemon struct {
	id   string
	addr string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// startDaemons starts one factord, or three clustered ones, each with
// its own data directory and otherwise default flags.
func startDaemons(bin, dir string, clustered bool) ([]*daemon, error) {
	n := 1
	if clustered {
		n = 3
	}
	var ds []*daemon
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		d := &daemon{id: fmt.Sprintf("n%d", i+1), addr: addr, done: make(chan struct{})}
		args := []string{"-addr", addr, "-data-dir", filepath.Join(dir, d.id)}
		if clustered {
			args = append(args, "-cluster", "-node-id", d.id)
			if i > 0 {
				args = append(args, "-join", ds[0].addr)
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			stopAll(ds)
			return nil, err
		}
		logf, err := os.Create(filepath.Join(dir, d.id+".log"))
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stdout = logf
		d.cmd.Stderr = logf
		// The kernel kills the daemon if the benchmark dies first.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			logf.Close()
			stopAll(ds)
			return nil, fmt.Errorf("starting factord: %w", err)
		}
		go func() {
			d.cmd.Wait()
			logf.Close()
			close(d.done)
		}()
		ds = append(ds, d)
	}
	return ds, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain overruns.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("factord %s did not drain within 15s", d.id)
	}
	return nil
}

// stopAll stops every daemon and waits for all of them.
func stopAll(ds []*daemon) error {
	var errs []error
	for _, d := range ds {
		errs = append(errs, d.stop())
	}
	return errors.Join(errs...)
}

// waitReady polls until every node answers /readyz and, clustered,
// every node's ring holds all of them.
func waitReady(ctx context.Context, cl *http.Client, ds []*daemon, clustered bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, d := range ds {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			select {
			case <-d.done:
				return fmt.Errorf("factord %s exited during start-up", d.id)
			default:
			}
			if ready(ctx, cl, d, len(ds), clustered) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("factord %s not ready after 60s", d.id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func ready(ctx context.Context, cl *http.Client, d *daemon, n int, clustered bool) bool {
	if _, err := get(ctx, cl, "http://"+d.addr+"/readyz"); err != nil {
		return false
	}
	if !clustered {
		return true
	}
	var s nodeStats
	if err := getJSON(ctx, cl, "http://"+d.addr+"/v1/stats", &s); err != nil || s.Cluster == nil {
		return false
	}
	return len(s.Cluster.Ring) == n
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// client is one load-generating caller with a single connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) submit(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return "", err
	}
	return sub.ID, nil
}

func (c *client) status(ctx context.Context, id string) (service.Status, error) {
	var st service.Status
	err := getJSON(ctx, c.http, c.base+"/v1/jobs/"+id, &st)
	return st, err
}

func (c *client) result(ctx context.Context, id string) (string, error) {
	data, err := get(ctx, c.http, c.base+"/v1/jobs/"+id+"/result")
	return string(data), err
}

func get(ctx context.Context, cl *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func getJSON(ctx context.Context, cl *http.Client, url string, v any) error {
	data, err := get(ctx, cl, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
