package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStateTableStress hammers one StateTable from many workers racing
// Cover/Release/Value/Claim on overlapping cube sets, spread over two
// id bands (testCubeIDs: worker 0's labels and worker 1's), while
// a coordinator concurrently toggles the owner check, the way the
// L-shaped ablation harness does, and lock-free readers poll State and
// Value. It checks the property the §5.3 state machine exists to
// provide: of all workers speculating on overlapping rectangles, the
// value of each cube is banked at most once, so the total banked
// across all successful claims never exceeds the total true value of
// the cubes. Each reader checks that DIVIDED is absorbing as it sees
// it: once a cube reads DIVIDED, it never reads FREE, COVERED or a
// non-zero value again. Run it with -race (CI does) to catch
// unsynchronized access, and with -tags invariants to assert every
// transition against Table 5.
func TestStateTableStress(t *testing.T) {
	const (
		workers  = 8
		opsEach  = 2000
		claimLen = 6
		readers  = 2
	)
	cubes := testCubeIDs()
	weight := func(id int64) int { return 1 + int(id%5) }
	trueTotal := 0
	for _, id := range cubes {
		trueTotal += weight(id)
	}

	st := NewStateTable()
	var banked atomic.Int64

	// Coordinator racing the ablation toggle against the workers: this
	// is the access pattern that used to be an unsynchronized bool
	// write.
	stop := make(chan struct{})
	var togglerWG sync.WaitGroup
	togglerWG.Add(1)
	go func() {
		defer togglerWG.Done()
		on := false
		for {
			select {
			case <-stop:
				st.SetOwnerCheck(true)
				return
			default:
				st.SetOwnerCheck(on)
				on = !on
			}
		}
	}()

	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(-r) - 1))
			divided := map[int64]bool{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := cubes[rng.Intn(len(cubes))]
				p := rng.Intn(workers)
				s := st.State(id)
				v := st.Value(p, id, weight(id))
				if divided[id] && s != Divided {
					t.Errorf("reader %d: cube %d read %v after DIVIDED", r, id, s)
					return
				}
				if s == Divided {
					divided[id] = true
					if v != 0 {
						t.Errorf("reader %d: divided cube %d worth %d to worker %d", r, id, v, p)
						return
					}
				}
			}
		}(r)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			pick := func() ([]int64, []int) {
				n := 1 + rng.Intn(claimLen)
				ids := make([]int64, n)
				weights := make([]int, n)
				for i := range ids {
					ids[i] = cubes[rng.Intn(len(cubes))]
					weights[i] = weight(ids[i])
				}
				return ids, weights
			}
			for op := 0; op < opsEach; op++ {
				ids, weights := pick()
				switch rng.Intn(4) {
				case 0:
					st.Cover(w, ids, weights)
				case 1:
					st.Release(w, ids)
				case 2:
					for i, id := range ids {
						if v := st.Value(w, id, weights[i]); v < 0 || v > weights[i] {
							t.Errorf("worker %d: cube %d value %d outside [0,%d]", w, id, v, weights[i])
							return
						}
					}
				default:
					if total, ok := st.Claim(w, ids, weights, func(total int) bool { return total > 0 }); ok {
						banked.Add(int64(total))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	togglerWG.Wait()
	readerWG.Wait()

	if got := banked.Load(); got > int64(trueTotal) {
		t.Fatalf("workers banked %d literals from cubes worth %d in total: some cube's value was claimed twice", got, trueTotal)
	}
	for _, id := range cubes {
		if s := st.State(id); s != Free && s != Covered && s != Divided {
			t.Fatalf("cube %d ended in undefined state %v", id, s)
		}
	}
}
