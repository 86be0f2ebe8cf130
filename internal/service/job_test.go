package service

import (
	"sync"
	"testing"
)

// A client cancel that lands while a forwarded job's watcher is inside
// a peer request must not re-run the job locally when the watcher then
// falls back to Requeue.
func TestCancelBeforeRequeueFinishesCancelled(t *testing.T) {
	rt := NewRouter(NewQueue(4), NewCache(4), 16)
	j := testJob("a")
	if !j.BeginRemote("n2", func() {}) {
		t.Fatal("BeginRemote refused a queued job")
	}
	if !j.Cancel() {
		t.Fatal("Cancel had no effect on a remotely running job")
	}
	rt.Requeue(j)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("job is %s after cancel and requeue, want CANCELLED", st)
	}
	if n := rt.Queue().Len(); n != 0 {
		t.Fatalf("queue holds %d jobs, want 0: a cancelled job was requeued", n)
	}
	select {
	case <-j.done:
	default:
		t.Fatal("done channel still open on a CANCELLED job")
	}
}

// Every terminal transition closes the done channel, and concurrent
// ones close it exactly once (a second close would panic). Run with
// -race -count=10.
func TestCancelRacesFinishClosesDoneOnce(t *testing.T) {
	rt := NewRouter(NewQueue(4), NewCache(4), 16)
	for i := 0; i < 200; i++ {
		queued := testJob("q")
		remote := testJob("r")
		if !remote.BeginRemote("n2", func() {}) {
			t.Fatal("BeginRemote refused a queued job")
		}
		var wg sync.WaitGroup
		for _, f := range []func(){
			func() { queued.Cancel() },
			func() { queued.finish(StateDone, &Result{}, false, "") },
			func() { remote.Cancel() },
			func() { rt.Requeue(remote) },
			func() { remote.FinishRemote(StateFailed, nil, false, "owner failed") },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		wg.Wait()
		// Whatever the order, each job ends terminal: a requeue that
		// beats the cancel leaves a QUEUED job the cancel then ends.
		for _, j := range []*Job{queued, remote} {
			select {
			case <-j.done:
			default:
				t.Fatalf("job %s: done still open in state %s", j.ID, j.State())
			}
			if st := j.State(); !st.Terminal() {
				t.Fatalf("job %s: done closed in state %s", j.ID, st)
			}
		}
		for rt.Queue().Len() > 0 {
			rt.Queue().Pop()
		}
	}
}

// restoreTerminal is the third way into a terminal state.
func TestRestoreTerminalClosesDone(t *testing.T) {
	j := testJob("a")
	j.restoreTerminal(StateDone, &Result{}, true, "")
	select {
	case <-j.done:
	default:
		t.Fatal("done channel still open on a restored DONE job")
	}
	if j.Cancel() {
		t.Fatal("Cancel changed a restored terminal job")
	}
}
