package extract

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rect"
)

// serviceOptions are the service's default search options.
var serviceOptions = Options{Rect: rect.Config{MaxCols: 5, MaxVisits: 100000}, BatchK: 16}

// TestPropertyRepeatSameAtAnyGOMAXPROCS factors the misex3, dalu and
// des benchmarks with Repeat under the service's default search
// options at GOMAXPROCS 1, where neither the matrix build nor the root
// presearch fans out, and at GOMAXPROCS 4, where both do. The BLIF and
// the work counters must be identical.
func TestPropertyRepeatSameAtAnyGOMAXPROCS(t *testing.T) {
	sameAtAnyGOMAXPROCS(t, func(nw *network.Network) Result {
		res, _ := Repeat(context.Background(), nw, nil, serviceOptions)
		return res
	})
}

// TestPropertyCubeExtractSameAtAnyGOMAXPROCS runs CubeExtract to
// completion on the same benchmarks and options, whose searches
// presearch their roots on every core at GOMAXPROCS 4.
func TestPropertyCubeExtractSameAtAnyGOMAXPROCS(t *testing.T) {
	sameAtAnyGOMAXPROCS(t, func(nw *network.Network) Result {
		return CubeExtract(nw, nil, 0, serviceOptions)
	})
}

// sameAtAnyGOMAXPROCS calls run on fresh misex3, dalu and des
// networks at GOMAXPROCS 1 and 4 and requires the same BLIF, work and
// extraction count.
func sameAtAnyGOMAXPROCS(t *testing.T, run func(*network.Network) Result) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"misex3", "dalu", "des"} {
		var out [2]bytes.Buffer
		var res [2]Result
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			nw, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = run(nw)
			if err := blif.Write(&out[i], nw); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Fatalf("%s: BLIF differs between GOMAXPROCS 1 and 4", name)
		}
		if res[0].Work != res[1].Work || res[0].Extracted != res[1].Extracted {
			t.Fatalf("%s: GOMAXPROCS 1 did %+v and extracted %d, GOMAXPROCS 4 did %+v and extracted %d",
				name, res[0].Work, res[0].Extracted, res[1].Work, res[1].Extracted)
		}
	}
}
