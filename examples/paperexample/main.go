// Paperexample walks through the worked examples of the paper on the
// Eq. 1 network:
//
//   - the co-kernel cube matrix of the 2-way partition (Figure 2),
//   - the greedy kernel-cube ownership and the exchanged B_ij blocks
//     forming the L-shaped matrices with offset labels (Example 5.1,
//     Figures 3 and 4),
//   - independent partitioned extraction losing quality by
//     duplicating a+b (Example 4.1), and
//   - the Example 5.2 consistency scenario with the zero-cost
//     profitability check.
package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/network"
	"repro/internal/sop"
)

func main() {
	nw := network.PaperExample()
	names := nw.Names
	fmt.Println("Network N of Example 1.1:")
	for _, v := range nw.NodeVars() {
		fmt.Printf("  %s = %s\n", names.Name(v), nw.Node(v).Fn.Format(names.Fmt()))
	}
	fmt.Printf("  literal count: %d\n\n", nw.Literals())

	// ---- Figure 2: the KC matrix of the partition {F} | {G,H} ----
	F, _ := names.Lookup("F")
	G, _ := names.Lookup("G")
	H, _ := names.Lookup("H")
	parts := [][]sop.Var{{G, H}, {F}}
	mats := lshape.BuildMatrices(nw, parts, kernels.Options{})
	fmt.Println("Partitioned co-kernel cube matrices (Figure 2; processor offsets of §5.2):")
	fmt.Println("-- processor 0 (nodes G, H) --")
	fmt.Print(mats[0].Dump(names))
	fmt.Println("-- processor 1 (node F) --")
	fmt.Print(mats[1].Dump(names))
	fmt.Println()

	// ---- Example 5.1: cube ownership ----
	own := lshape.Distribute(mats)
	fmt.Println("Cube ownership after Distribute_cube_ownership (Example 5.1):")
	for p, cols := range own {
		fmt.Printf("  local_cubes[%d] =", p)
		for k, c := range cols {
			if c.Owner == p {
				fmt.Printf(" %s(%d)", mats[p].Cols()[k].Cube.Format(names.Fmt()), c.Label)
			}
		}
		fmt.Println()
	}
	fmt.Println()

	// ---- Figures 3/4: the L-shaped matrices ----
	ls, exch := lshape.Assemble(mats, own)
	for p, l := range ls {
		fmt.Printf("L-shaped matrix of processor %d (own rows + foreign rows in owned columns):\n", p)
		fmt.Print(l.Dump(names))
	}
	fmt.Printf("exchanged B_ij entries: proc1->proc0 %d, proc0->proc1 %d\n\n",
		exch.Words[1][0], exch.Words[0][1])

	// ---- Example 4.1: independent partitions duplicate a+b ----
	indep := network.PaperExample()
	core.Partitioned(context.Background(), indep, 2, core.Options{})
	fmt.Printf("Independent partitioned extraction (Example 4.1): LC %d (SIS reaches 22)\n",
		indep.Literals())
	for _, v := range indep.NodeVars() {
		fmt.Printf("  %s = %s\n", indep.Names.Name(v), indep.Node(v).Fn.Format(indep.Names.Fmt()))
	}
	fmt.Println()

	// ---- §5: the L-shaped run recovers the shared kernel ----
	lnet := network.PaperExample()
	core.LShaped(context.Background(), lnet, 2, core.Options{})
	fmt.Printf("L-shaped parallel extraction: LC %d\n", lnet.Literals())
	for _, v := range lnet.NodeVars() {
		fmt.Printf("  %s = %s\n", lnet.Names.Name(v), lnet.Node(v).Fn.Format(lnet.Names.Fmt()))
	}
	fmt.Println()

	// ---- Table 5: the cube state machine ----
	fmt.Println("Cube states during concurrent extraction (Table 5):")
	st := core.NewStateTable()
	fmt.Printf("  cube 42 initially: %s (value %d to anyone)\n",
		st.State(42), st.Value(1, 42, 5))
	st.Cover(0, []int64{42}, []int{5})
	fmt.Printf("  after processor 0 covers it: %s (owner sees %d, others %d)\n",
		st.State(42), st.Value(0, 42, 5), st.Value(1, 42, 5))
	st.Divide([]int64{42})
	fmt.Printf("  after division: %s (worth %d to everyone)\n",
		st.State(42), st.Value(0, 42, 5))
}
