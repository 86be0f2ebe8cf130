package script_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/internal/script"
	"repro/internal/tables"
)

// TestRunPinned pins the synthesis flow on the six suite circuits with
// Table 1's search options: the final literal count, the passes, the
// kernel-extraction calls, the work, and a SHA-256 digest of the
// factored circuit's BLIF. The cube phase's matrix is built by
// extract.cubeLiteralMatrix, so a change to how the cube-literal
// matrix is built or searched shows here.
func TestRunPinned(t *testing.T) {
	opt := tables.DefaultConfig().Opt
	for _, want := range []struct {
		name               string
		lc, passes, facInv int
		work               int64
		digest             string
	}{
		{"misex3", 874, 3, 6, 19091, "34ce4a0abdc03dfb594257c1491395ad183e086fb14750fa0b165c81f3c13503"},
		{"dalu", 2088, 3, 6, 61201, "15d865508d31aa142149ce08da6f7a8b219bc1b000979c295c2bb0e1a7a0eabf"},
		{"des", 4430, 6, 12, 460314, "56888cf08d952d52cabc4c33608b3fc63ae11dedf9877216b6195782731c2d3c"},
		{"seq", 7687, 7, 14, 507340, "24be3fb26381919a80c89d9700f7eca910d8fbff5ee58fffc79ee00c54280360"},
		{"spla", 12020, 8, 16, 1445368, "64883cff0717db70544451dcdedb9df34d01b77dd7520d4ca841356ffdb5e0af"},
		{"ex1010", 9755, 8, 16, 2135164, "96ecace89f818ed850f14e342ad2128f4d5e56f07b014ca4ddba578408d94bde"},
	} {
		nw, err := gen.Benchmark(want.name)
		if err != nil {
			t.Fatal(err)
		}
		res := script.Run(nw, script.Options{Kernel: opt.Kernel, Rect: opt.Rect, BatchK: opt.BatchK})
		var b bytes.Buffer
		if err := blif.Write(&b, nw); err != nil {
			t.Fatal(err)
		}
		digest := fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
		if res.FinalLC != want.lc || res.Passes != want.passes || res.FacInvocations != want.facInv ||
			res.TotalWork != want.work || digest != want.digest {
			t.Errorf("%s: LC %d, %d passes, %d kernel calls, work %d, BLIF %s; want LC %d, %d passes, %d kernel calls, work %d, BLIF %s",
				want.name, res.FinalLC, res.Passes, res.FacInvocations, res.TotalWork, digest,
				want.lc, want.passes, want.facInv, want.work, want.digest)
		}
	}
}
