package hlc

import (
	"sort"
	"sync"
	"testing"
	"time"
)

func TestNowStrictlyIncreases(t *testing.T) {
	c := New("n1")
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		ts := c.Now()
		if !prev.Before(ts) {
			t.Fatalf("timestamp %v not after %v", ts, prev)
		}
		prev = ts
	}
}

func TestNowUsesLogicalWhenWallStalls(t *testing.T) {
	frozen := time.Unix(100, 0)
	c := NewWithTime("n1", func() time.Time { return frozen })
	a := c.Now()
	b := c.Now()
	if a.Wall != b.Wall {
		t.Fatalf("wall moved under a frozen physical clock: %v vs %v", a, b)
	}
	if b.Logical != a.Logical+1 {
		t.Fatalf("logical did not bump: %v then %v", a, b)
	}
}

func TestObserveOrdersAfterRemote(t *testing.T) {
	frozen := time.Unix(100, 0)
	c := NewWithTime("n1", func() time.Time { return frozen })
	remote := Timestamp{Wall: frozen.UnixNano() + int64(time.Hour), Logical: 7, Node: "n2"}
	got := c.Observe(remote)
	if !remote.Before(got) {
		t.Fatalf("Observe result %v does not order after remote %v", got, remote)
	}
	// The merged state must persist: the next local stamp still orders
	// after the remote event even though physical time lags it.
	if next := c.Now(); !remote.Before(next) {
		t.Fatalf("post-Observe Now %v does not order after remote %v", next, remote)
	}
}

func TestObserveAdvancesWithPhysicalTime(t *testing.T) {
	c := New("n1")
	old := Timestamp{Wall: 1, Logical: 99, Node: "n2"}
	got := c.Observe(old)
	if got.Wall <= old.Wall {
		t.Fatalf("fresh physical time should dominate an ancient remote stamp: %v", got)
	}
	if got.Logical != 0 {
		t.Fatalf("logical should reset when physical time dominates: %v", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	ts := []Timestamp{
		{Wall: 2, Logical: 0, Node: "a"},
		{Wall: 1, Logical: 5, Node: "b"},
		{Wall: 1, Logical: 5, Node: "a"},
		{Wall: 1, Logical: 0, Node: "z"},
	}
	sorted := append([]Timestamp(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	want := []Timestamp{
		{Wall: 1, Logical: 0, Node: "z"},
		{Wall: 1, Logical: 5, Node: "a"},
		{Wall: 1, Logical: 5, Node: "b"},
		{Wall: 2, Logical: 0, Node: "a"},
	}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, sorted[i], want[i])
		}
	}
	if ts[2].Compare(ts[2]) != 0 {
		t.Fatal("equal timestamps must compare 0")
	}
}

func TestConcurrentNowUnique(t *testing.T) {
	c := New("n1")
	const workers, per = 8, 200
	out := make(chan Timestamp, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out <- c.Now()
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := map[Timestamp]bool{}
	for ts := range out {
		if seen[ts] {
			t.Fatalf("duplicate timestamp issued: %v", ts)
		}
		seen[ts] = true
	}
}

// NewWithTime returns a clock reading physical time from now — the
// test seam for deterministic clock behaviour.
func NewWithTime(node string, now func() time.Time) *Clock {
	return &Clock{node: node, now: now}
}
