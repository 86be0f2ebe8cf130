package shell

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/equiv"
	"repro/internal/network"
)

func run(t *testing.T, commands string) (*Shell, string) {
	t.Helper()
	var out bytes.Buffer
	s := New(&out)
	if err := s.Run(strings.NewReader(commands)); err != nil {
		t.Fatal(err)
	}
	return s, out.String()
}

func writeEq1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eq1.blif")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := blif.Write(f, network.PaperExample()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadGkxPrint(t *testing.T) {
	path := writeEq1(t)
	s, out := run(t, "read_blif "+path+"\nprint_stats\ngkx\nprint\n")
	if !strings.Contains(out, "33 literals") {
		t.Fatalf("stats missing initial LC:\n%s", out)
	}
	if !strings.Contains(out, "lits = 22") {
		t.Fatalf("gkx result missing:\n%s", out)
	}
	if s.Network().Literals() != 22 {
		t.Fatalf("network LC = %d", s.Network().Literals())
	}
}

func TestParallelGkx(t *testing.T) {
	path := writeEq1(t)
	_, out := run(t, "read_blif "+path+"\ngkx -algo lshape -p 2\n")
	if !strings.Contains(out, "lshaped: lits = 22") {
		t.Fatalf("lshape gkx output:\n%s", out)
	}
}

// TestGkxRejectsProcsOutOfRange checks that gkx refuses a processor
// count outside 1..core.MaxProcs before any driver runs, leaving the
// network as it was.
func TestGkxRejectsProcsOutOfRange(t *testing.T) {
	path := writeEq1(t)
	s, _ := run(t, "read_blif "+path+"\n")
	dump := func() string {
		var b bytes.Buffer
		if err := blif.Write(&b, s.Network()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := dump()
	for _, algo := range []string{"repl", "part", "lshape"} {
		for _, p := range []string{"0", "-1", "65"} {
			if _, err := s.Exec("gkx -algo " + algo + " -p " + p); err == nil {
				t.Errorf("gkx -algo %s -p %s: no error", algo, p)
			}
			if got := dump(); got != before {
				t.Fatalf("gkx -algo %s -p %s changed the network:\n%s", algo, p, got)
			}
		}
	}
}

func TestBenchAndOps(t *testing.T) {
	s, out := run(t, "bench misex3\nsweep\nsimplify\ncx\neliminate\nresub\nstats\n")
	if !strings.Contains(out, "generated misex3") {
		t.Fatalf("bench output:\n%s", out)
	}
	if s.Network() == nil || s.Network().NumNodes() == 0 {
		t.Fatal("network missing after ops")
	}
}

func TestPrintFactor(t *testing.T) {
	path := writeEq1(t)
	_, out := run(t, "read_blif "+path+"\nprint_factor F\n")
	if !strings.Contains(out, "F = ") || !strings.Contains(out, "lits factored") {
		t.Fatalf("print_factor output:\n%s", out)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	path := writeEq1(t)
	outPath := filepath.Join(t.TempDir(), "out.blif")
	run(t, "read_blif "+path+"\ngkx\nwrite_blif "+outPath+"\n")
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := blif.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := equiv.Check(network.PaperExample(), back, equiv.Options{}); err != nil {
		t.Fatalf("factored circuit written by shell not equivalent: %v", err)
	}
}

func TestSetAndDecomp(t *testing.T) {
	_, out := run(t, "bench misex3\nset maxvisits 5000\nset batch 4\ndecomp 6\n")
	if !strings.Contains(out, "maxvisits = 5000") || !strings.Contains(out, "batch = 4") {
		t.Fatalf("set output:\n%s", out)
	}
	if !strings.Contains(out, "created") {
		t.Fatalf("decomp output:\n%s", out)
	}
}

func TestErrorsReportedNotFatal(t *testing.T) {
	_, out := run(t, "gkx\nnonsense\nbench nope\nquit\nprint\n")
	for _, want := range []string{"no network loaded", "unknown command", "unknown benchmark"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "print") {
		t.Fatal("commands after quit must not run")
	}
}

func TestHelpAndComments(t *testing.T) {
	_, out := run(t, "# comment line\n\nhelp\n")
	if !strings.Contains(out, "commands:") {
		t.Fatalf("help output:\n%s", out)
	}
}

// Network returns the current network (nil before any read).
func (s *Shell) Network() *network.Network { return s.nw }
