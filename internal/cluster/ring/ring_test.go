package ring

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sha256-key-%d", i)
	}
	return out
}

func TestOwnerDeterministic(t *testing.T) {
	a := New([]string{"n3", "n1", "n2"}, 64)
	b := New([]string{"n1", "n2", "n3"}, 64) // order must not matter
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owners differ across identically-membered rings: %q vs %q",
				k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestOwnerSpreadsLoad(t *testing.T) {
	r := New([]string{"n1", "n2", "n3"}, 64)
	counts := map[string]int{}
	ks := keys(3000)
	for _, k := range ks {
		counts[r.Owner(k)] = counts[r.Owner(k)] + 1
	}
	for _, n := range r.Nodes() {
		got := counts[n]
		mean := len(ks) / 3
		if got < mean/2 || got > mean*2 {
			t.Fatalf("node %s owns %d of %d keys (mean %d): load badly skewed %v",
				n, got, len(ks), mean, counts)
		}
	}
}

func TestRemovalOnlyMovesRemovedNodesKeys(t *testing.T) {
	full := New([]string{"n1", "n2", "n3"}, 64)
	without := New([]string{"n1", "n2"}, 64)
	moved, kept := 0, 0
	for _, k := range keys(2000) {
		was, is := full.Owner(k), without.Owner(k)
		if was == "n3" {
			moved++
			if is == "n3" {
				t.Fatalf("key %q still owned by removed node", k)
			}
			continue
		}
		if was != is {
			t.Fatalf("key %q moved from %q to %q though its owner survived", k, was, is)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestEmptyAndSingleRing(t *testing.T) {
	if o := New(nil, 8).Owner("k"); o != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", o)
	}
	solo := New([]string{"only"}, 8)
	for _, k := range keys(50) {
		if solo.Owner(k) != "only" {
			t.Fatalf("single-node ring misrouted %q", k)
		}
	}
	if got := New([]string{"a", "", "a"}, 8).Nodes(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("duplicate/empty ids not collapsed: %v", got)
	}
}
