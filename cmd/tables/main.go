// Command tables regenerates the paper's experimental tables (1, 2,
// 3, 4, 6) and the Equation 3 speedup-model comparison on the
// calibrated synthetic benchmark suite. This is the harness behind
// EXPERIMENTS.md.
//
// Usage:
//
//	tables               # everything (takes several minutes)
//	tables -table 3      # just Table 3
//	tables -table 2,6
//	tables -circuits dalu,des -procs 2,4
//	tables -model ex1010 # Eq. 3 model comparison for one circuit
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tables"
)

func main() {
	var (
		which     = flag.String("table", "1,2,3,4,6", "comma-separated table numbers to run")
		circuits  = flag.String("circuits", "", "comma-separated circuit names (default: paper suite)")
		procs     = flag.String("procs", "", "comma-separated processor counts (default 2,4,6)")
		model     = flag.String("model", "", "also run the Eq. 3 model comparison for this circuit")
		maxVisits = flag.Int("maxvisits", 0, "override the rectangle-search visit cap")
	)
	flag.Parse()

	cfg := tables.DefaultConfig()
	if *maxVisits > 0 {
		cfg.Opt.Rect.MaxVisits = *maxVisits
	}
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	if *procs != "" {
		p, err := parseProcs(*procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		cfg.Procs = p
	}
	h := tables.New(cfg)

	want := map[string]bool{}
	for _, s := range strings.Split(*which, ",") {
		want[strings.TrimSpace(s)] = true
	}
	run := func(n string, f func()) {
		if !want[n] {
			return
		}
		t0 := time.Now()
		f()
		fmt.Printf("(table %s took %v)\n\n", n, time.Since(t0).Round(time.Millisecond))
	}

	run("1", func() { tables.FprintTable1(os.Stdout, h.Table1()) })
	run("2", func() {
		tables.FprintAlgoTable(os.Stdout,
			"Table 2: parallel kernel extraction using circuit replication (S vs its own p=1 run)",
			cfg.Procs, h.Table2())
	})
	run("3", func() {
		tables.FprintAlgoTable(os.Stdout,
			"Table 3: parallel kernel extraction using circuit partitioning (S vs sequential SIS)",
			cfg.Procs, h.Table3())
	})
	run("4", func() { tables.FprintTable4(os.Stdout, cfg.Procs, h.Table4()) })
	run("6", func() {
		tables.FprintAlgoTable(os.Stdout,
			"Table 6: parallel algorithm with L-shaped partitioning (S vs sequential SIS)",
			cfg.Procs, h.Table6())
	})
	if *model != "" {
		tables.FprintModelTable(os.Stdout, *model, h.SpeedupModelTable(*model))
	}
}

// parseProcs parses the -procs list: comma-separated processor counts,
// each within 1..core.MaxProcs.
func parseProcs(list string) ([]int, error) {
	var procs []int
	for _, s := range strings.Split(list, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if err := core.CheckProcs(p); err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}
