package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json this test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTinyRuns runs every workload untraced and traced at a tiny size
// (three library circuits, about a second of load) and checks the
// output against BENCHMARK.json.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts factord processes")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "factord")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/factord")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building factord: %v\n%s", err, out)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w.Name, 1)
			cfg.factord = bin
			cfg.trace = traced
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s emitted as %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
	if pids := running(bin); len(pids) != 0 {
		t.Errorf("factord processes survived the runs: %v", pids)
	}
}

// TestInputsFollowSeed checks that every workload's inputs are a
// function of the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	lib := func(seed int64) string {
		var texts []string
		for _, nw := range librarySet(seed, 2) {
			texts = append(texts, blifText(nw))
		}
		return digest(texts)
	}
	svc := func(seed int64, hot bool) string {
		sr := &svcRun{cfg: tinyConfig(t, "", seed), hot: hot}
		var texts []string
		for _, in := range sr.generate() {
			texts = append(texts, in.text)
		}
		return digest(texts)
	}
	for name, d := range map[string]func(int64) string{
		"library": lib,
		"cold":    func(s int64) string { return svc(s, false) },
		"hot":     func(s int64) string { return svc(s, true) },
	} {
		if a, b := d(1), d(1); a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a, b := d(1), d(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}

func tinyConfig(t *testing.T, workload string, seed int64) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = seed
	cfg.seconds = time.Second
	cfg.perFamily = 1
	cfg.setups = 1
	cfg.warmupJobs = 3
	cfg.workdir = t.TempDir()
	return cfg
}

// running lists the pids of live processes executing bin.
func running(bin string) []string {
	var pids []string
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, e.Name())
		}
	}
	return pids
}
