package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// are the contract BENCHMARK.json describes; e2e_test.go checks that
// the two agree.
type metricDef struct {
	name, unit string
}

// endToEnd is reported by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"lc_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is reported by every traced run; a layer the workload never
// calls reads 0.
var perLayer = []metricDef{
	{"rect.bestk_self_ms", "ms"},
	{"rect.bestk_share", "fraction"},
	{"rect.bestk_calls", "count"},
	{"rect.visits", "count"},
	{"rect.rects_per_call", "count"},
	{"rect.accept_ratio", "fraction"},
	{"kcm.rebuild_self_ms", "ms"},
	{"kcm.rebuild_share", "fraction"},
	{"kcm.nodes_kerneled", "count"},
	{"kcm.nodes_reused", "count"},
	{"kcm.reuse_ratio", "fraction"},
	{"kernels.pairs_kerneled", "count"},
	{"extract.apply_self_ms", "ms"},
	{"extract.apply_share", "fraction"},
	{"extract.division_cubes", "count"},
	{"extract.calls_per_circuit", "count"},
	{"partition.kway_ms", "ms"},
	{"core.barriers", "count"},
	{"core.recovered", "count"},
	{"core.cpu_per_wall", "ratio"},
	{"core.wall_speedup_p2", "ratio"},
	{"vtime.speedup", "ratio"},
	{"vtime.work_inflation", "ratio"},
	{"vtime.ns_per_unit.build", "ns"},
	{"vtime.ns_per_unit.search", "ns"},
	{"vtime.ns_per_unit.divide", "ns"},
	{"service.submit_p50_ms", "ms"},
	{"service.submit_p99_ms", "ms"},
	{"durable.append_p50_ms", "ms"},
	{"durable.append_p99_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.run_p50_ms", "ms"},
	{"service.run_p99_ms", "ms"},
	{"service.result_fetch_p50_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.cache_hit_ratio", "fraction"},
	{"pool.computed", "count"},
	{"pool.build_ms", "ms"},
	{"pool.faults_total", "count"},
	{"cluster.forwarded_ratio", "fraction"},
	{"cluster.forward_e2e_p50_ms", "ms"},
	{"cluster.forward_e2e_p99_ms", "ms"},
	{"cluster.local_e2e_p50_ms", "ms"},
	{"cluster.hit_e2e_p50_ms", "ms"},
	{"cluster.replicated_in", "count"},
	{"cluster.replication_pending_end", "count"},
	{"cluster.heartbeat_failures", "count"},
	{"cluster.remote_requeues", "count"},
	{"trace.overhead_frac", "fraction"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// outcome is what a workload run hands back: its counts, the values it
// measured by metric name, and human-readable notes for stderr.
type outcome struct {
	attempted, failed int
	// cal tracks the host's speed over the run; times in values are
	// scaled by it to the reference host.
	cal    calibrator
	values map[string]float64
	notes  []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result keeps exactly the metrics of defs. A traced run fills the
// layers its workload touches; the others read 0. An untraced run must
// have measured every end-to-end metric.
func (o *outcome) result(defs []metricDef, requireAll bool) (Result, error) {
	r := Result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]Metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && requireAll {
			return Result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// trip is one operation of a closed loop: a library call, or a service
// job from submit to fetched result.
type trip struct {
	client int
	at     time.Time
	// d is the time the caller was busy; latency is what the metric
	// reports (for a job, send to the server's finished_at).
	d, latency time.Duration
	ok         bool
	// waited marks a trip whose time is mostly a fixed timer's (a
	// forwarded job, whose node polls the owner every
	// cluster.Config.RemotePoll; a cluster's start, which waits for
	// heartbeats to carry the ring): host speed does not stretch it, so
	// it is not scaled.
	waited bool
}

// scaleOf is the host-speed scale of trip t.
func (o *outcome) scaleOf(t trip) float64 {
	if t.waited {
		return 1
	}
	return o.cal.scaleAt(t.at)
}

// setLoad sets throughput and latency from a closed loop's trips:
// throughput sums each caller's completions over its busy time.
func (o *outcome) setLoad(trips []trip) {
	var done [clients]int
	var busy [clients]float64
	var lat []float64
	for _, t := range trips {
		s := o.scaleOf(t)
		busy[t.client] += t.d.Seconds() * s
		if t.ok {
			done[t.client]++
			lat = append(lat, ms(t.latency)*s)
		}
	}
	tput := 0.0
	for c := range done {
		tput += ratio(float64(done[c]), busy[c])
	}
	o.values["throughput_per_s"] = tput
	o.values["latency_p50_ms"] = percentile(lat, 50)
	o.values["latency_p90_ms"] = percentile(lat, 90)
	o.notef("host speed: %d kernel samples, times scaled by %.4f on average", len(o.cal.ns), o.cal.scale())
}

// setSetup sets setup_s to the set-up work done once plus the median
// of the repeated part.
func (o *outcome) setSetup(once []trip, reps []trip) {
	base := 0.0
	for _, t := range once {
		base += t.d.Seconds() * o.scaleOf(t)
	}
	s := make([]float64, len(reps))
	for i, t := range reps {
		s[i] = t.d.Seconds() * o.scaleOf(t)
	}
	o.values["setup_s"] = base + median(s)
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads a process's high-water resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
