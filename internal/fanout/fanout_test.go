package fanout

import (
	"sync/atomic"
	"testing"
)

func TestRunCallsEveryWorkerOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		var calls [5]atomic.Int32
		Run(n, func(w int) { calls[w].Add(1) })
		for w := range calls {
			want := int32(0)
			if w < max(n, 1) {
				want = 1
			}
			if got := calls[w].Load(); got != want {
				t.Errorf("n=%d: worker %d called %d times, want %d", n, w, got, want)
			}
		}
	}
}

// TestRunRepanicsOnCaller checks that a panic in a spawned worker, or
// in the caller's own share, comes out of Run on the calling goroutine
// and only after every worker has returned.
func TestRunRepanicsOnCaller(t *testing.T) {
	for _, bad := range []int{0, 2} {
		var finished atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			Run(4, func(w int) {
				if w == bad {
					panic(bad)
				}
				finished.Add(1)
			})
			return nil
		}()
		if got != bad {
			t.Errorf("worker %d panicked: Run re-panicked with %v, want %d", bad, got, bad)
		}
		if n := finished.Load(); n != 3 {
			t.Errorf("worker %d panicked: %d other workers finished before Run returned, want 3", bad, n)
		}
	}
}
