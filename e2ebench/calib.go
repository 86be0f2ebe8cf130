package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// refKernel is the calibration kernel's mean time on the reference
// host (a 2-vCPU Xeon VM, Go 1.24) in a quiet period. Scaled times read
// as they would there.
const refKernel = 2200 * time.Microsecond

const (
	// calEvery is the most time a workload lets pass between two
	// calibration points.
	calEvery = time.Second
	// kernelRuns is how many kernel runs one calibration point times.
	kernelRuns = 3
	// calWindow is how many kernel samples, nearest in time, set the
	// scale of one measured operation.
	calWindow = 7
)

// calibrator tracks the host's speed while a workload runs. The
// reference host is a VM whose speed moves by ±13% between 5-second
// windows as neighbouring machines load its memory system, and every
// workload slows with it alike: raw 20-second runs on ten seeds spread
// by 26-50% (interquartile range over median), and scaling by kernel
// samples taken only before and after the timed phase still left
// svc-cold-1node at 17-24%. So a fixed kernel of the benchmark's own is
// timed about once a second, always while the system under test is
// idle (between library calls; with both service callers between
// jobs), and each operation's times are scaled by the samples nearest
// it. The kernel is the benchmark's own code, so no change to the
// repository moves it.
type calibrator struct {
	at []time.Time
	ns []float64
}

// due reports whether calEvery has passed since the last point.
func (c *calibrator) due() bool {
	return len(c.at) == 0 || time.Since(c.at[len(c.at)-1]) >= calEvery
}

// sample collects the garbage left so far, so that it does not slow
// the kernel, and times kernelRuns runs of it. At most one forced
// collection a second is a small share of the 16 to 173 cycles a
// second Go runs on its own while factoring these circuits.
func (c *calibrator) sample() {
	runtime.GC()
	for i := 0; i < kernelRuns; i++ {
		t0 := time.Now()
		calibrationKernel()
		c.ns = append(c.ns, float64(time.Since(t0).Nanoseconds()))
		c.at = append(c.at, t0)
	}
}

// scale turns a time measured anywhere in the calibrated period into
// reference-host time: refKernel over the mean kernel time. The mean,
// not the median: a kernel sample is slow only when the host was, and
// a stolen or stalled slice slows the workload just as much.
func (c *calibrator) scale() float64 {
	return kernelScale(c.ns)
}

// scaleAt is scale over the calWindow samples nearest t only.
func (c *calibrator) scaleAt(t time.Time) float64 {
	if len(c.ns) <= calWindow {
		return c.scale()
	}
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	lo := min(max(i-calWindow/2, 0), len(c.ns)-calWindow)
	return kernelScale(c.ns[lo : lo+calWindow])
}

// since returns the samples from the i-th on.
func (c *calibrator) since(i int) *calibrator {
	return &calibrator{at: c.at[i:], ns: c.ns[i:]}
}

// kernelScale is refKernel over the mean of ns.
func kernelScale(ns []float64) float64 {
	if len(ns) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range ns {
		sum += x
	}
	return float64(refKernel.Nanoseconds()) * float64(len(ns)) / sum
}

// calibrationKernel is a fixed mix of what the factorization code
// spends its time on: small slice allocations, sorting, string keys
// and map inserts. Over 5- and 20-second windows of dalu factoring its
// mean tracked the host's speed to 2.5%, where an allocation-free
// kernel (pointer chasing, sorting, a pre-sized map) tracked it to 6%.
func calibrationKernel() int {
	r := rand.New(rand.NewSource(1))
	m := make(map[string][]int32)
	keys := make([]string, 0, 4000)
	var sb strings.Builder
	for i := 0; i < 4000; i++ {
		cube := make([]int32, 2+r.Intn(4))
		for j := range cube {
			cube[j] = int32(r.Intn(96))
		}
		slices.Sort(cube)
		sb.Reset()
		for _, c := range cube {
			sb.WriteString(strconv.Itoa(int(c)))
			sb.WriteByte(',')
		}
		k := sb.String()
		m[k] = append(m[k], int32(i))
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return len(m)
}
