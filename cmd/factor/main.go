// Command factor runs algebraic factorization on a circuit, with the
// paper's three parallel algorithms selectable alongside the
// sequential SIS-style baseline.
//
// Usage:
//
//	factor -in circuit.blif [-format blif|eqn] -algo seq|repl|part|lshape \
//	       [-p 4] [-o out.blif] [-maxcols 5] [-maxvisits 100000] [-batch 16]
//
// The input may also be a named synthetic benchmark (-bench dalu).
// The tool prints the literal counts before and after, the virtual
// time, and for parallel algorithms the speedup against the
// sequential baseline on the same circuit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/eqn"
	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rect"
)

func main() {
	var (
		in        = flag.String("in", "", "input circuit file")
		format    = flag.String("format", "blif", "input/output format: blif or eqn")
		bench     = flag.String("bench", "", "generate a named synthetic benchmark instead of reading a file")
		algo      = flag.String("algo", "seq", "algorithm: seq, repl, part, lshape")
		p         = flag.Int("p", 4, "virtual processors for parallel algorithms (1..64)")
		out       = flag.String("o", "", "write the factored circuit here")
		maxCols   = flag.Int("maxcols", 5, "rectangle search depth cap")
		maxVisits = flag.Int("maxvisits", 100000, "rectangle search visit cap")
		batch     = flag.Int("batch", 16, "rectangles harvested per search (1 = strict greedy)")
		baseline  = flag.Bool("baseline", true, "also run the sequential baseline for speedup")
	)
	flag.Parse()
	if err := core.CheckProcs(*p); err != nil {
		fmt.Fprintln(os.Stderr, "factor:", err)
		os.Exit(1)
	}

	nw, err := load(*in, *format, *bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "factor:", err)
		os.Exit(1)
	}
	opt := core.Options{
		Rect:   rect.Config{MaxCols: *maxCols, MaxVisits: *maxVisits},
		BatchK: *batch,
	}
	initial := nw.Literals()
	fmt.Printf("circuit %s: %d nodes, %d literals\n", nw.Name, nw.NumNodes(), initial)

	var base core.RunResult
	if *baseline && *algo != "seq" {
		ref := nw.CloneDetached()
		base = core.Sequential(context.Background(), ref, opt)
		fmt.Printf("sequential baseline: LC %d, vtime %d (wall %v)\n",
			base.LC, base.VirtualTime, base.WallClock.Round(1e6))
	}

	var res core.RunResult
	switch *algo {
	case "seq":
		res = core.Sequential(context.Background(), nw, opt)
	case "repl":
		res = core.Replicated(context.Background(), nw, *p, opt)
	case "part":
		res = core.Partitioned(context.Background(), nw, *p, opt)
	case "lshape":
		res = core.LShaped(context.Background(), nw, *p, opt)
	default:
		fmt.Fprintf(os.Stderr, "factor: unknown algorithm %q\n", *algo)
		os.Exit(1)
	}

	fmt.Printf("%s (p=%d): LC %d -> %d (ratio %.3f), extracted %d kernels in %d calls\n",
		res.Algorithm, res.P, initial, res.LC, float64(res.LC)/float64(initial),
		res.Extracted, res.Calls)
	fmt.Printf("virtual time %d, total work %d, wall %v\n",
		res.VirtualTime, res.TotalWork, res.WallClock.Round(1e6))
	if res.DNF {
		fmt.Println("run exceeded its work budget (DNF)")
	}
	if base.VirtualTime > 0 {
		fmt.Printf("speedup vs sequential: %.2f\n", core.Speedup(base, res))
	}

	if *out != "" {
		if err := save(*out, *format, nw); err != nil {
			fmt.Fprintln(os.Stderr, "factor:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func load(path, format, bench string) (*network.Network, error) {
	if bench != "" {
		return gen.Benchmark(bench)
	}
	if path == "" {
		return nil, fmt.Errorf("need -in file or -bench name")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "blif":
		return blif.Read(f)
	case "eqn":
		return eqn.Read(f, path)
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

func save(path, format string, nw *network.Network) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "blif":
		return blif.Write(f, nw)
	case "eqn":
		return eqn.Write(f, nw)
	}
	return fmt.Errorf("unknown format %q", format)
}
