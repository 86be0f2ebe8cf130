package core

import (
	"context"
	"testing"

	"repro/internal/equiv"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
)

func TestSequentialBaseline(t *testing.T) {
	nw := network.PaperExample()
	res := Sequential(context.Background(), nw, Options{})
	if res.LC != 22 {
		t.Fatalf("sequential LC = %d want 22", res.LC)
	}
	if res.VirtualTime <= 0 {
		t.Fatal("no virtual time recorded")
	}
	if res.P != 1 || res.Algorithm != "sequential" {
		t.Fatalf("bad metadata %+v", res)
	}
}

func TestReplicatedMatchesSequentialQuality(t *testing.T) {
	// §3: the replicated algorithm follows the same search path as
	// the sequential one, so the result must be identical.
	for _, p := range []int{1, 2, 3, 4} {
		nw := network.PaperExample()
		ref := nw.Clone()
		res := Replicated(context.Background(), nw, p, Options{})
		if res.LC != 22 {
			t.Fatalf("p=%d: LC = %d want 22", p, res.LC)
		}
		if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.DNF {
			t.Fatalf("p=%d: unexpected DNF", p)
		}
	}
}

func TestReplicatedDeterministicAcrossP(t *testing.T) {
	// Same final network function and LC for every processor count.
	var lcs []int
	for _, p := range []int{1, 2, 4, 6} {
		nw := network.PaperExample()
		Replicated(context.Background(), nw, p, Options{})
		lcs = append(lcs, nw.Literals())
	}
	for _, lc := range lcs[1:] {
		if lc != lcs[0] {
			t.Fatalf("LC differs across p: %v", lcs)
		}
	}
}

func TestReplicatedBarriersAndRedundantWork(t *testing.T) {
	nw1 := network.PaperExample()
	r1 := Replicated(context.Background(), nw1, 1, Options{})
	nw4 := network.PaperExample()
	r4 := Replicated(context.Background(), nw4, 4, Options{})
	if r4.Barriers == 0 {
		t.Fatal("no barriers recorded at p=4")
	}
	// Redundant work: total work grows with p (replicated merges
	// and divisions), even though elapsed may shrink.
	if r4.TotalWork <= r1.TotalWork {
		t.Fatalf("total work %d at p=4 not above %d at p=1",
			r4.TotalWork, r1.TotalWork)
	}
}

func TestReplicatedDNFOnBudget(t *testing.T) {
	nw := network.PaperExample()
	res := Replicated(context.Background(), nw, 2, Options{WorkBudget: 1})
	if !res.DNF {
		t.Fatal("expected DNF with a tiny budget")
	}
}

func TestPartitionedQualityAndIndependence(t *testing.T) {
	// §4 on the paper network with the {F} | {G,H} style split:
	// independent extraction duplicates a+b (Example 4.1) giving a
	// worse LC than sequential, but stays functionally equivalent.
	nw := network.PaperExample()
	ref := nw.Clone()
	res := Partitioned(context.Background(), nw, 2, Options{})
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
	if res.LC < 22 {
		t.Fatalf("partitioned LC %d beat sequential 22 — impossible", res.LC)
	}
	// Example 4.1 predicts 26 literals for the natural partition;
	// allow the partitioner some freedom but demand a gain vs 33.
	if res.LC > 30 {
		t.Fatalf("partitioned LC %d barely gained from 33", res.LC)
	}
}

func TestPartitionedP1EqualsSequential(t *testing.T) {
	a := network.PaperExample()
	ra := Partitioned(context.Background(), a, 1, Options{})
	b := network.PaperExample()
	rb := Sequential(context.Background(), b, Options{})
	if ra.LC != rb.LC {
		t.Fatalf("p=1 partitioned LC %d != sequential %d", ra.LC, rb.LC)
	}
}

func TestPartitionedMergeBackIntegrity(t *testing.T) {
	nw := network.PaperExample()
	Partitioned(context.Background(), nw, 3, Options{})
	if err := nw.CheckDriven(); err != nil {
		t.Fatalf("merged network broken: %v", err)
	}
	if _, err := nw.TopoSort(); err != nil {
		t.Fatalf("merged network cyclic: %v", err)
	}
}

func TestLShapedQualityBeatsPartitioned(t *testing.T) {
	// §5: the L-shape finds the partition-spanning a+b rectangle
	// that the independent partitions duplicate.
	nw := network.PaperExample()
	ref := nw.Clone()
	res := LShaped(context.Background(), nw, 2, Options{})
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
	if res.LC > 24 {
		t.Fatalf("lshaped LC = %d want <= 24 (sequential is 22)", res.LC)
	}
	if err := nw.CheckDriven(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.TopoSort(); err != nil {
		t.Fatal(err)
	}
}

func TestLShapedManyP(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6} {
		nw := network.PaperExample()
		ref := nw.Clone()
		res := LShaped(context.Background(), nw, p, Options{})
		if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.LC > 26 || res.LC < 22 {
			t.Fatalf("p=%d: LC = %d outside [22,26]", p, res.LC)
		}
		// No fault is injected, so no worker may be lost; in the
		// invariants build a failed check loses its worker.
		if res.Recovered != 0 || res.Failure != nil {
			t.Fatalf("p=%d: lost workers: Recovered %d, Failure %v", p, res.Recovered, res.Failure)
		}
	}
}

func TestLShapedDNFOnBudget(t *testing.T) {
	nw := network.PaperExample()
	res := LShaped(context.Background(), nw, 2, Options{WorkBudget: 1})
	if !res.DNF {
		t.Fatal("expected DNF with tiny budget")
	}
}

func TestLShapedExchangeCharges(t *testing.T) {
	// With a one-unit budget every worker stops at its first cover
	// check, so the run is deterministic and its virtual time is the
	// matrix build plus the modeled §5.2 exchange: the kernel-cube
	// lists sent to the master, its mapping sent back, the B_ij
	// blocks and the barriers. The figures are those of the serial
	// design, in which worker 0 assembled every L-matrix: where the
	// assembly runs must not move a charge.
	want := map[string][]int64{ // p = 1, 2, 3, 4, 6
		"misex3": {10004, 7467, 6272, 5589, 5027},
		"dalu":   {19446, 14098, 13312, 11050, 10741},
		"des":    {52035, 38216, 33402, 31526, 29042},
	}
	for _, name := range []string{"misex3", "dalu", "des"} {
		for i, p := range []int{1, 2, 3, 4, 6} {
			nw, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			res := LShaped(context.Background(), nw, p, Options{WorkBudget: 1})
			if res.VirtualTime != want[name][i] || res.Barriers != 5 || !res.DNF {
				t.Errorf("%s p=%d: virtual time %d, %d barriers, DNF %v; want %d, 5, true",
					name, p, res.VirtualTime, res.Barriers, res.DNF, want[name][i])
			}
		}
	}
}

// TestLShapedP1Pinned pins core.LShaped at p = 1, where one worker
// meets no claim races and the run is deterministic. Its search values
// every divided cube through the worker's state-table valuer
// (StateTable.Value), so a search that ignored the table would pick
// other rectangles and read other figures. The figures were recorded
// with tables.DefaultConfig()'s search options.
func TestLShapedP1Pinned(t *testing.T) {
	opt := Options{Rect: rect.Config{MaxCols: 5, MaxVisits: 100000}, BatchK: 16}
	want := map[string]struct {
		lc int
		vt int64
	}{
		"misex3": {1187, 40643},
		"dalu":   {2890, 119102},
	}
	for _, name := range []string{"misex3", "dalu"} {
		nw, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		res := LShaped(context.Background(), nw, 1, opt)
		if res.LC != want[name].lc || res.VirtualTime != want[name].vt {
			t.Errorf("%s: LC %d, virtual time %d; want %d, %d",
				name, res.LC, res.VirtualTime, want[name].lc, want[name].vt)
		}
	}
}

// TestLShapedPeerCoverChangesBest pins, without goroutines, the shared
// state §5.3 rests on at p = 2: a leg entry of worker 0's L-matrix
// carries the CubeID that worker 1's own row gives the same function
// cube. Worker 1 covers, under its own id, a cube of worker 0's best
// rectangle that worker 0 holds only through the leg B_10, and worker
// 0's best rectangle, valued through the state table, must lose value.
func TestLShapedPeerCoverChangesBest(t *testing.T) {
	nw, err := gen.Benchmark("dalu")
	if err != nil {
		t.Fatal(err)
	}
	mats := lshape.BuildMatrices(nw, partition.KWay(nw, nil, 2, partition.Options{}), kernels.Options{})
	ls, _ := lshape.Assemble(mats, lshape.Distribute(mats))
	st := NewStateTable()
	val := func(e kcm.Entry) int { return st.Value(0, e.CubeID, e.Weight) }
	cfg := rect.Config{MaxCols: 5, MaxVisits: 100000}
	before, _ := rect.Best(ls[0], cfg, val)

	// A cube of the best rectangle in a row worker 0 got from worker 1,
	// as worker 1's own L-matrix holds it.
	var id int64
	var weight int
	for _, rid := range before.Rows {
		if mats[0].Row(rid) != nil {
			continue
		}
		e, ok := ls[1].Row(rid).Entry(before.Cols[0])
		if !ok {
			t.Fatalf("worker 1's row %d has no entry in column %d", rid, before.Cols[0])
		}
		id, weight = e.CubeID, e.Weight
		break
	}
	if id == 0 {
		t.Fatalf("worker 0's best rectangle %v uses no row of the leg B_10", before)
	}
	st.Cover(1, []int64{id}, []int{weight})
	if v := st.Value(0, id, weight); v != 0 {
		t.Fatalf("cube %d covered by worker 1 is worth %d to worker 0", id, v)
	}
	after, _ := rect.Best(ls[0], cfg, val)
	if after.Gain >= before.Gain {
		t.Fatalf("worker 0's best %v did not lose value after worker 1 covered cube %d (was %v)", after, id, before)
	}
}

func TestSpeedupHelper(t *testing.T) {
	base := RunResult{VirtualTime: 100}
	run := RunResult{VirtualTime: 25}
	if s := Speedup(base, run); s != 4 {
		t.Fatalf("speedup = %f want 4", s)
	}
	if Speedup(base, RunResult{VirtualTime: 25, DNF: true}) != 0 {
		t.Fatal("DNF must yield zero speedup")
	}
	if Speedup(base, RunResult{}) != 0 {
		t.Fatal("zero time must yield zero speedup")
	}
}
