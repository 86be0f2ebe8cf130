package tables

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rect"
)

// smallConfig keeps harness tests fast: one small circuit, p ∈ {2,3}.
func smallConfig() Config {
	return Config{
		Circuits: []string{"misex3"},
		Procs:    []int{2, 3},
		Opt: core.Options{
			Rect:   rect.Config{MaxCols: 4, MaxVisits: 20000},
			BatchK: 16,
		},
		ReplicatedMaxVisits: 8000,
		ReplicatedBudget:    200_000_000,
	}
}

func TestTable1Shape(t *testing.T) {
	h := New(smallConfig())
	rows := h.Table1()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.FacInvoked < 2 {
		t.Fatalf("fac invoked %d", r.FacInvoked)
	}
	if r.FinalLC >= r.InitialLC {
		t.Fatalf("no improvement: %d -> %d", r.InitialLC, r.FinalLC)
	}
	// The paper's core observation: factorization dominates
	// synthesis time (61% there; anything over a third here).
	if r.FacFraction < 0.33 {
		t.Fatalf("factorization only %.1f%% of work", 100*r.FacFraction)
	}
	var buf bytes.Buffer
	FprintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "misex3") {
		t.Fatal("render missing circuit")
	}
}

func TestTable2Replicated(t *testing.T) {
	h := New(smallConfig())
	rows := h.Table2()
	r := rows[0]
	if r.Base.DNF {
		t.Fatal("baseline DNF")
	}
	for _, p := range []int{2, 3} {
		run := r.Runs[p]
		if run.DNF {
			t.Fatalf("p=%d DNF under large budget", p)
		}
		// Quality comparable to its own sequential run.
		dev := float64(run.LC-r.Base.LC) / float64(r.Base.LC)
		if dev > 0.02 || dev < -0.02 {
			t.Fatalf("p=%d LC %d deviates from base %d", p, run.LC, r.Base.LC)
		}
	}
	var buf bytes.Buffer
	FprintAlgoTable(&buf, "Table 2", []int{2, 3}, rows)
	if !strings.Contains(buf.String(), "average") {
		t.Fatal("render missing average row")
	}
}

func TestTable2DNF(t *testing.T) {
	cfg := smallConfig()
	cfg.ReplicatedBudget = 10 // everything DNFs
	h := New(cfg)
	rows := h.Table2()
	for _, p := range cfg.Procs {
		if !rows[0].Runs[p].DNF {
			t.Fatalf("p=%d should DNF", p)
		}
	}
	var buf bytes.Buffer
	FprintAlgoTable(&buf, "Table 2", cfg.Procs, rows)
	if !strings.Contains(buf.String(), "-") {
		t.Fatal("DNF entries must render as '-'")
	}
}

func TestTable3Partitioned(t *testing.T) {
	h := New(smallConfig())
	rows := h.Table3()
	r := rows[0]
	for _, p := range []int{2, 3} {
		run := r.Runs[p]
		// Partitioned quality is worse than or equal to SIS.
		if run.LC < r.Base.LC {
			t.Fatalf("p=%d: partitioned LC %d beats SIS %d", p, run.LC, r.Base.LC)
		}
		if s := r.Speedup(p); s <= 1 {
			t.Fatalf("p=%d: speedup %.2f not > 1", p, s)
		}
	}
}

func TestTable6LShaped(t *testing.T) {
	h := New(smallConfig())
	rows3 := h.Table3()
	rows6 := h.Table6()
	r3, r6 := rows3[0], rows6[0]
	for _, p := range []int{2, 3} {
		// No fault is injected, so no worker may be lost; in the
		// invariants build a failed check loses its worker.
		if run := r6.Runs[p]; run.Recovered != 0 || run.Failure != nil {
			t.Fatalf("p=%d: lost workers: Recovered %d, Failure %v", p, run.Recovered, run.Failure)
		}
		if s := r6.Speedup(p); s <= 1 {
			t.Fatalf("p=%d: lshaped speedup %.2f not > 1", p, s)
		}
		// The paper's quality ordering: L-shaped at least as good
		// as independent partitions (allow 1% slack for the
		// concurrent search's nondeterminism).
		if float64(r6.Runs[p].LC) > float64(r3.Runs[p].LC)*1.01 {
			t.Fatalf("p=%d: lshaped LC %d worse than partitioned %d",
				p, r6.Runs[p].LC, r3.Runs[p].LC)
		}
	}
}

func TestTable4Quality(t *testing.T) {
	h := New(smallConfig())
	rows := h.Table4()
	if len(rows) != 1 { // misex3 appears once (also in Circuits)
		// Config's circuit list is just misex3, and Table4
		// prepends misex3 — dedupe is not required, both rows are
		// the same circuit.
		if len(rows) != 2 || rows[0].Name != rows[1].Name {
			t.Fatalf("unexpected rows %v", rows)
		}
	}
	r := rows[0]
	for _, k := range []int{2, 3} {
		dev := float64(r.KWayLC[k]-r.SISLC) / float64(r.SISLC)
		if dev > 0.05 || dev < -0.05 {
			t.Fatalf("k=%d: L-shaped LC %d vs SIS %d (%.1f%%)",
				k, r.KWayLC[k], r.SISLC, 100*dev)
		}
	}
	var buf bytes.Buffer
	FprintTable4(&buf, []int{2, 3}, rows)
	if !strings.Contains(buf.String(), "SIS") {
		t.Fatal("render missing SIS column")
	}
}

func TestSpeedupModelFormula(t *testing.T) {
	// With γ = 2αp/(p−1), the denominator is (1+1)² and S = p²/4.
	if got := SpeedupModel(4, 0.5, 2*0.5*4.0/3.0); got < 3.99 || got > 4.01 {
		t.Fatalf("S = %f want 4", got)
	}
	// γ → 0 (perfectly partitioned): S → p².
	if got := SpeedupModel(3, 0.5, 0); got != 9 {
		t.Fatalf("S = %f want 9", got)
	}
	if SpeedupModel(0, 0.5, 0.1) != 0 || SpeedupModel(2, 0, 0.1) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
}

func TestSpeedupModelTable(t *testing.T) {
	h := New(smallConfig())
	rows := h.SpeedupModelTable("misex3")
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Alpha <= 0 || r.Alpha > 1 || r.Gamma <= 0 || r.Gamma > 1 {
			t.Fatalf("bad sparsities %+v", r)
		}
		if r.Model <= 0 {
			t.Fatalf("model %f", r.Model)
		}
		if r.Measured <= 0 {
			t.Fatalf("measured %f", r.Measured)
		}
	}
	var buf bytes.Buffer
	FprintModelTable(&buf, "misex3", rows)
	if !strings.Contains(buf.String(), "alpha") {
		t.Fatal("render missing header")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Circuits) != 5 || len(cfg.Procs) != 3 {
		t.Fatalf("unexpected defaults %+v", cfg)
	}
	h := New(Config{})
	if h.cfg.Circuits == nil || h.cfg.Procs == nil {
		t.Fatal("New must fill defaults")
	}
}
