package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// factord is the daemon binary the service workloads start.
	factord string
	// workdir receives data dirs, span files and probe files.
	workdir string

	// Sizes; the defaults are the benchmark's, the test shrinks them.
	perFamily  int // library circuits per family
	setups     int // set-up repetitions behind setup_s
	warmupJobs int // untimed service jobs per caller before measuring
}

func defaultConfig() config {
	return config{
		seed:       1,
		seconds:    20 * time.Second,
		perFamily:  30,
		setups:     3,
		warmupJobs: 100,
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"factor-seq":       func(ctx context.Context, c config) (*outcome, error) { return runLibrary(ctx, c, false) },
	"factor-lshape-p2": func(ctx context.Context, c config) (*outcome, error) { return runLibrary(ctx, c, true) },
	"svc-cold-1node":   func(ctx context.Context, c config) (*outcome, error) { return runService(ctx, c, false) },
	"svc-hot-3node":    func(ctx context.Context, c config) (*outcome, error) { return runService(ctx, c, true) },
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "factor-seq, factor-lshape-p2, svc-cold-1node or svc-hot-3node")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed every input is derived from")
	seconds := flag.Float64("seconds", cfg.seconds.Seconds(), "measured time of the run")
	traceLevel := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.factord, "factord", "", "factord binary for the service workloads")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for data dirs, spans and probe files")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traceLevel == 1
	if flag.NArg() != 0 || *traceLevel < 0 || *traceLevel > 1 || cfg.seconds <= 0 || cfg.workdir == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and shapes its result: end-to-end metrics
// untraced, per-layer metrics traced.
func run(ctx context.Context, cfg config) (Result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return Result{}, err
	}
	out, err := fn(ctx, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "%s: %s\n", cfg.workload, n)
	}
	if cfg.trace {
		return out.result(perLayer, false)
	}
	return out.result(endToEnd, true)
}

// writeSpanFile writes a traced pass's spans as JSON lines.
func writeSpanFile(cfg config, rec *Recorder) error {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
