package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kcm"
)

func TestStateTableLifecycle(t *testing.T) {
	// Table 5: FREE -> COVERED -> DIVIDED.
	st := NewStateTable()
	if st.State(1) != Free {
		t.Fatal("unseen cube must be FREE")
	}
	if v := st.Value(0, 1, 5); v != 5 {
		t.Fatalf("free value = %d want 5", v)
	}
	st.Cover(0, []int64{1}, []int{5})
	if st.State(1) != Covered {
		t.Fatal("cube not covered")
	}
	// Owner sees the true value; others see zero (§5.3).
	if v := st.Value(0, 1, 5); v != 5 {
		t.Fatalf("owner value = %d want 5", v)
	}
	if v := st.Value(1, 1, 5); v != 0 {
		t.Fatalf("non-owner value = %d want 0", v)
	}
	st.Divide([]int64{1})
	if st.State(1) != Divided {
		t.Fatal("cube not divided")
	}
	if st.Value(0, 1, 5) != 0 || st.Value(1, 1, 5) != 0 {
		t.Fatal("divided cube must be worth 0 to everyone")
	}
}

func TestStateTableRelease(t *testing.T) {
	st := NewStateTable()
	st.Cover(0, []int64{1, 2}, []int{3, 4})
	st.Release(0, []int64{1})
	if st.State(1) != Free {
		t.Fatal("released cube must be FREE")
	}
	if v := st.Value(1, 1, 3); v != 3 {
		t.Fatalf("released cube value = %d want 3 (trueval copied back)", v)
	}
	// Release by a non-owner is a no-op.
	st.Release(1, []int64{2})
	if st.State(2) != Covered {
		t.Fatal("non-owner release must not free the cube")
	}
}

func TestStateTableCoverDoesNotSteal(t *testing.T) {
	st := NewStateTable()
	st.Cover(0, []int64{7}, []int{9})
	st.Cover(1, []int64{7}, []int{9})
	if v := st.Value(0, 7, 9); v != 9 {
		t.Fatal("first coverer must keep ownership")
	}
	if v := st.Value(1, 7, 9); v != 0 {
		t.Fatal("second coverer must see 0")
	}
}

func TestStateTableOwnerCheckAblation(t *testing.T) {
	st := NewStateTable()
	st.SetOwnerCheck(false)
	st.Cover(0, []int64{1}, []int{5})
	// The §5.3 bias: even the owner sees zero, so a bigger later
	// rectangle evaluates worse than a smaller earlier one.
	if v := st.Value(0, 1, 5); v != 0 {
		t.Fatalf("ablated owner value = %d want 0", v)
	}
}

func TestClaimSuccessAndFailure(t *testing.T) {
	st := NewStateTable()
	// Worker 0 speculates on cubes 1,2.
	st.Cover(0, []int64{1, 2}, []int{4, 4})
	// Worker 1 tries to claim them: sees 0, accept fails, and its
	// own speculative covers (none here) are released.
	total, ok := st.Claim(1, []int64{1, 2}, []int{4, 4}, func(tot int) bool { return tot > 0 })
	if ok || total != 0 {
		t.Fatalf("claim by non-owner got total=%d ok=%v", total, ok)
	}
	// Worker 0 claims successfully; cubes become DIVIDED.
	total, ok = st.Claim(0, []int64{1, 2}, []int{4, 4}, func(tot int) bool { return tot == 8 })
	if !ok || total != 8 {
		t.Fatalf("owner claim got total=%d ok=%v", total, ok)
	}
	if st.State(1) != Divided || st.State(2) != Divided {
		t.Fatal("claimed cubes must be DIVIDED")
	}
}

func TestClaimFailureReleasesOwn(t *testing.T) {
	st := NewStateTable()
	st.Cover(0, []int64{5}, []int{3})
	_, ok := st.Claim(0, []int64{5}, []int{3}, func(tot int) bool { return false })
	if ok {
		t.Fatal("claim should fail")
	}
	if st.State(5) != Free {
		t.Fatal("failed claim must release own covers")
	}
}

func TestClaimDeduplicatesCubes(t *testing.T) {
	st := NewStateTable()
	total, ok := st.Claim(0, []int64{9, 9, 9}, []int{5, 5, 5}, func(tot int) bool { return true })
	if !ok || total != 5 {
		t.Fatalf("duplicate cube counted more than once: total=%d", total)
	}
}

func TestStateTableConcurrentSafety(t *testing.T) {
	st := NewStateTable()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				st.Cover(w, []int64{i % 17}, []int{3})
				st.Value(w, i%17, 3)
				if i%5 == 0 {
					st.Release(w, []int64{i % 17})
				}
				if i%11 == 0 {
					st.Claim(w, []int64{i % 17}, []int{3},
						func(tot int) bool { return tot > 0 })
				}
			}
		}(w)
	}
	wg.Wait()
	// Exactly one terminal observation per cube id; just ensure no
	// panic/race and states are valid.
	for i := int64(0); i < 17; i++ {
		s := st.State(i)
		if s != Free && s != Covered && s != Divided {
			t.Fatalf("invalid state %v", s)
		}
	}
}

func TestCubeStateString(t *testing.T) {
	if Free.String() != "FREE" || Covered.String() != "COVERED" || Divided.String() != "DIVIDED" {
		t.Fatal("state names must match Table 5")
	}
	if CubeState(99).String() != "?" {
		t.Fatal("unknown state")
	}
}

// refTable is a map-based, single-goroutine reference model of the
// cube-state table: TestStateTableMatchesReference drives it and
// StateTable through the same operations and compares every
// observable.
type refTable struct {
	cubes      map[int64]*refCube
	ownerCheck bool
}

type refCube struct {
	state          CubeState
	trueval, owner int
}

func newRefTable() *refTable {
	return &refTable{cubes: map[int64]*refCube{}, ownerCheck: true}
}

func (r *refTable) value(p int, id int64, weight int) int {
	c, ok := r.cubes[id]
	if !ok {
		return weight
	}
	switch c.state {
	case Free:
		return weight
	case Covered:
		if r.ownerCheck && c.owner == p {
			return c.trueval
		}
	}
	return 0
}

func (r *refTable) state(id int64) CubeState {
	if c, ok := r.cubes[id]; ok {
		return c.state
	}
	return Free
}

func (r *refTable) cover(p int, ids []int64, weights []int) {
	for i, id := range ids {
		c, ok := r.cubes[id]
		if !ok {
			r.cubes[id] = &refCube{state: Covered, trueval: weights[i], owner: p}
		} else if c.state == Free {
			*c = refCube{state: Covered, trueval: weights[i], owner: p}
		}
	}
}

func (r *refTable) release(p int, ids []int64) {
	for _, id := range ids {
		if c, ok := r.cubes[id]; ok && c.state == Covered && c.owner == p {
			c.state = Free
		}
	}
}

func (r *refTable) divide(ids []int64) {
	for _, id := range ids {
		r.cubes[id] = &refCube{state: Divided}
	}
}

func (r *refTable) claim(p int, ids []int64, weights []int, accept func(int) bool) (int, bool) {
	total := 0
	seen := map[int64]bool{}
	for i, id := range ids {
		if !seen[id] {
			seen[id] = true
			total += r.value(p, id, weights[i])
		}
	}
	if !accept(total) {
		r.release(p, ids)
		return total, false
	}
	r.divide(ids)
	return total, true
}

// testCubeIDs returns cube ids from band 0 and band 1 (worker 1's
// labels start at kcm.Stride+1), each band including ids on both
// sides of a page boundary.
func testCubeIDs() []int64 {
	band1Page := int64(kcm.Stride/pageWords+1) * pageWords
	var ids []int64
	for _, base := range []int64{1, pageWords - 3, kcm.Stride + 1, band1Page - 3} {
		for i := int64(0); i < 6; i++ {
			ids = append(ids, base+i)
		}
	}
	return ids
}

// TestStateTableMatchesReference runs seeded random sequences of
// Cover, Release, Divide, Claim and SetOwnerCheck against both
// StateTable and refTable, and after every step compares Value (for
// every worker) and State of every cube; Claim's total and outcome are
// compared as they happen.
//
// It also checks the change log after every step. An observer cursor
// (worker id `workers`, which owns no cube) must be fed exactly the
// cubes whose word the step changed. Each worker's own cursor must be
// fed every cube whose Value for that worker changed, except that,
// while the owner check is on, the worker's own Cover and Release
// (a failed Claim's included) may be left out, since in the L-shaped
// driver their trueval is the weight the worker reads; a SetOwnerCheck
// step is not a write and is fed nothing.
func TestStateTableMatchesReference(t *testing.T) {
	const (
		workers  = 3
		steps    = 120
		maxBatch = 5
	)
	pool := testCubeIDs()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, ref := NewStateTable(), newRefTable()
		cursors := make([]int, workers+1)
		for step := 0; step < steps; step++ {
			words := map[int64]cubeWord{}
			values := map[[2]int64]int{}
			for _, id := range pool {
				words[id] = st.word(id)
				for w := 0; w < workers; w++ {
					values[[2]int64{int64(w), id}] = st.Value(w, id, 7)
				}
			}
			p := rng.Intn(workers)
			n := 1 + rng.Intn(maxBatch)
			ids, weights := make([]int64, n), make([]int, n)
			for i := range ids {
				ids[i] = pool[rng.Intn(len(pool))] // repeats exercise Claim's dedup
				weights[i] = 1 + rng.Intn(9)
			}
			var op string
			own := false // the step is p's own Cover or Release
			switch k := rng.Intn(20); {
			case k < 7:
				op, own = "Cover", true
				st.Cover(p, ids, weights)
				ref.cover(p, ids, weights)
			case k < 12:
				op, own = "Release", true
				st.Release(p, ids)
				ref.release(p, ids)
			case k < 17:
				op = "Claim"
				need := rng.Intn(12)
				accept := func(total int) bool { return total > need }
				gotTotal, gotOK := st.Claim(p, ids, weights, accept)
				wantTotal, wantOK := ref.claim(p, ids, weights, accept)
				if gotTotal != wantTotal || gotOK != wantOK {
					t.Fatalf("seed %d step %d: Claim(%d, %v, %v) = (%d, %v), reference (%d, %v)",
						seed, step, p, ids, weights, gotTotal, gotOK, wantTotal, wantOK)
				}
				own = !gotOK // a failed claim releases p's covers
			case k < 18:
				op = "Divide"
				st.Divide(ids)
				ref.divide(ids)
			default:
				op = "SetOwnerCheck"
				on := rng.Intn(2) == 0
				st.SetOwnerCheck(on)
				ref.ownerCheck = on
			}
			for _, id := range pool {
				if got, want := st.State(id), ref.state(id); got != want {
					t.Fatalf("seed %d step %d (%s by %d on %v): State(%d) = %v, reference %v",
						seed, step, op, p, ids, id, got, want)
				}
				for w := 0; w < workers; w++ {
					if got, want := st.Value(w, id, 7), ref.value(w, id, 7); got != want {
						t.Fatalf("seed %d step %d (%s by %d on %v): Value(%d, %d) = %d, reference %d",
							seed, step, op, p, ids, w, id, got, want)
					}
				}
			}
			for w := 0; w <= workers; w++ {
				fed := map[int64]bool{}
				cursors[w] = st.Changes(w, cursors[w], func(id int64) { fed[id] = true })
				for _, id := range pool {
					if w == workers {
						if changed := st.word(id) != words[id]; fed[id] != changed {
							t.Fatalf("seed %d step %d (%s by %d on %v): cube %d fed %v to the observer, word changed %v",
								seed, step, op, p, ids, id, fed[id], changed)
						}
						continue
					}
					changed := st.Value(w, id, 7) != values[[2]int64{int64(w), id}]
					mayOmit := op == "SetOwnerCheck" || own && w == p && ref.ownerCheck
					if changed && !fed[id] && !mayOmit {
						t.Fatalf("seed %d step %d (%s by %d on %v): Value(%d, %d) changed but the cube was not fed to %d",
							seed, step, op, p, ids, w, id, w)
					}
				}
			}
		}
	}
}

// TestStateTablePagesFollowTouchedIDs checks that the table's memory
// follows the ids written, not the largest id: reads and releases of
// unseen ids add no page, and writes in two bands add one page each.
func TestStateTablePagesFollowTouchedIDs(t *testing.T) {
	st := NewStateTable()
	band1 := int64(kcm.Stride + 1)
	pages := func() (n int) {
		for _, pg := range *st.pages.Load() {
			if pg != nil {
				n++
			}
		}
		return n
	}
	st.Value(0, band1, 3)
	st.State(band1)
	st.Release(0, []int64{1, band1})
	if n := pages(); n != 0 {
		t.Fatalf("reads and releases of unseen ids created %d pages", n)
	}
	st.Cover(0, []int64{1, 2}, []int{3, 3})
	st.Divide([]int64{band1})
	if n := pages(); n != 2 {
		t.Fatalf("writes to one page in each of two bands created %d pages, want 2", n)
	}
	if got := st.State(band1); got != Divided {
		t.Fatalf("band-1 cube is %v, want DIVIDED", got)
	}
	if got := st.Value(0, 2, 3); got != 3 {
		t.Fatalf("owner's covered band-0 value = %d, want 3", got)
	}
}

func TestStateTableRejectsUnpackableWrites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*StateTable)
	}{
		{"negative id", func(st *StateTable) { st.Divide([]int64{-1}) }},
		{"negative owner", func(st *StateTable) { st.Cover(-1, []int64{1}, []int{3}) }},
		{"trueval over 32 bits", func(st *StateTable) { st.Cover(0, []int64{1}, []int{maxTrueval + 1}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: write did not panic", tc.name)
				}
			}()
			tc.write(NewStateTable())
		}()
	}
}
