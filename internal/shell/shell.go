// Package shell implements a small SIS-style interactive command
// interpreter over the synthesis library: read/write circuits, run
// individual synthesis operations or the paper's parallel
// factorization algorithms, and inspect the network. cmd/sis wraps it
// in a REPL; tests drive it through strings.
package shell

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/eqn"
	"repro/internal/extract"
	"repro/internal/factored"
	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/script"
)

// Shell holds the interpreter state: the current network and the
// algorithm configuration.
type Shell struct {
	nw  *network.Network
	opt core.Options
	out io.Writer
}

// New returns a shell writing responses to out.
func New(out io.Writer) *Shell {
	return &Shell{
		out: out,
		opt: core.Options{
			Rect:   rect.Config{MaxCols: 5, MaxVisits: 100000},
			BatchK: 16,
		},
	}
}

// Run reads commands from r until EOF or "quit", executing each line.
// Errors are reported to the shell's writer; only I/O failures on r
// abort the loop.
func (s *Shell) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		quit, err := s.Exec(line)
		if err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
		if quit {
			return nil
		}
	}
	return sc.Err()
}

// Exec executes one command line and reports whether the session
// should end.
func (s *Shell) Exec(line string) (quit bool, err error) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "quit", "exit":
		return true, nil
	case "help":
		s.help()
	case "read_blif":
		err = s.read(args, "blif")
	case "read_eqn":
		err = s.read(args, "eqn")
	case "bench":
		err = s.bench(args)
	case "write_blif":
		err = s.write(args, "blif")
	case "write_eqn":
		err = s.write(args, "eqn")
	case "print_stats", "stats":
		err = s.stats()
	case "print":
		err = s.print(args)
	case "print_factor":
		err = s.printFactor(args)
	case "gkx":
		err = s.gkx(args)
	case "cx":
		err = s.withNet(func() {
			r := extract.CubeExtract(s.nw, nil, 0, extract.Options{Rect: s.opt.Rect, BatchK: s.opt.BatchK})
			fmt.Fprintf(s.out, "extracted %d cubes; lits = %d\n", r.Extracted, s.nw.Literals())
		})
	case "sweep":
		err = s.withNet(func() {
			script.Sweep(s.nw)
			fmt.Fprintf(s.out, "lits = %d, nodes = %d\n", s.nw.Literals(), s.nw.NumNodes())
		})
	case "simplify":
		err = s.withNet(func() {
			script.Simplify(s.nw)
			fmt.Fprintf(s.out, "lits = %d\n", s.nw.Literals())
		})
	case "eliminate":
		err = s.withNet(func() {
			script.Eliminate(s.nw)
			fmt.Fprintf(s.out, "lits = %d, nodes = %d\n", s.nw.Literals(), s.nw.NumNodes())
		})
	case "resub":
		err = s.withNet(func() {
			n, _ := script.Resubstitute(s.nw)
			fmt.Fprintf(s.out, "%d substitutions; lits = %d\n", n, s.nw.Literals())
		})
	case "decomp":
		err = s.decomp(args)
	case "script":
		err = s.withNet(func() {
			r := script.Run(s.nw, script.Options{Rect: s.opt.Rect, BatchK: s.opt.BatchK})
			fmt.Fprintf(s.out, "lits %d -> %d in %d passes (%d factorizations)\n",
				r.InitialLC, r.FinalLC, r.Passes, r.FacInvocations)
		})
	case "set":
		err = s.set(args)
	default:
		err = fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return false, err
}

func (s *Shell) withNet(f func()) error {
	if s.nw == nil {
		return fmt.Errorf("no network loaded (read_blif/read_eqn/bench first)")
	}
	f()
	return nil
}

func (s *Shell) read(args []string, format string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: read_%s FILE", format)
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return s.LoadFrom(f, format, args[0])
}

// LoadFrom loads a network from a reader (exposed for tests).
func (s *Shell) LoadFrom(r io.Reader, format, name string) error {
	var nw *network.Network
	var err error
	switch format {
	case "blif":
		nw, err = blif.Read(r)
	case "eqn":
		nw, err = eqn.Read(r, name)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	s.nw = nw
	fmt.Fprintf(s.out, "loaded %s\n", nw)
	return nil
}

func (s *Shell) bench(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bench NAME (one of %v)", gen.Benchmarks())
	}
	nw, err := gen.Benchmark(args[0])
	if err != nil {
		return err
	}
	s.nw = nw
	fmt.Fprintf(s.out, "generated %s\n", nw)
	return nil
}

func (s *Shell) write(args []string, format string) error {
	if s.nw == nil {
		return fmt.Errorf("no network loaded")
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: write_%s FILE", format)
	}
	f, err := os.Create(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "blif":
		return blif.Write(f, s.nw)
	default:
		return eqn.Write(f, s.nw)
	}
}

func (s *Shell) stats() error {
	return s.withNet(func() {
		fmt.Fprintf(s.out, "%s\n", s.nw)
	})
}

func (s *Shell) print(args []string) error {
	return s.withNet(func() {
		names := s.nw.Names
		if len(args) == 0 {
			for _, v := range s.nw.NodeVars() {
				fmt.Fprintf(s.out, "%s = %s\n", names.Name(v), s.nw.Node(v).Fn.Format(names.Fmt()))
			}
			return
		}
		for _, a := range args {
			v, ok := names.Lookup(a)
			if !ok || s.nw.Node(v) == nil {
				fmt.Fprintf(s.out, "no node %q\n", a)
				continue
			}
			fmt.Fprintf(s.out, "%s = %s\n", a, s.nw.Node(v).Fn.Format(names.Fmt()))
		}
	})
}

func (s *Shell) printFactor(args []string) error {
	return s.withNet(func() {
		names := s.nw.Names
		vars := s.nw.NodeVars()
		if len(args) > 0 {
			vars = vars[:0]
			for _, a := range args {
				if v, ok := names.Lookup(a); ok && s.nw.Node(v) != nil {
					vars = append(vars, v)
				} else {
					fmt.Fprintf(s.out, "no node %q\n", a)
				}
			}
		}
		total := 0
		for _, v := range vars {
			form := factored.Factor(s.nw.Node(v).Fn)
			total += form.Literals()
			fmt.Fprintf(s.out, "%s = %s   [%d lits factored]\n",
				names.Name(v), form.Format(names.Fmt()), form.Literals())
		}
		fmt.Fprintf(s.out, "factored literals: %d (SOP: %d)\n", total, s.nw.Literals())
	})
}

func (s *Shell) gkx(args []string) error {
	if s.nw == nil {
		return fmt.Errorf("no network loaded")
	}
	algo := "seq"
	p := 4
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-algo":
			i++
			if i >= len(args) {
				return fmt.Errorf("-algo needs a value")
			}
			algo = args[i]
		case "-p":
			i++
			if i >= len(args) {
				return fmt.Errorf("-p needs a value")
			}
			n, err := strconv.Atoi(args[i])
			if err != nil {
				return err
			}
			p = n
		default:
			return fmt.Errorf("unknown gkx flag %q", args[i])
		}
	}
	if err := core.CheckProcs(p); err != nil {
		return err
	}
	var res core.RunResult
	switch algo {
	case "seq":
		res = core.Sequential(context.Background(), s.nw, s.opt)
	case "repl":
		res = core.Replicated(context.Background(), s.nw, p, s.opt)
	case "part":
		res = core.Partitioned(context.Background(), s.nw, p, s.opt)
	case "lshape":
		res = core.LShaped(context.Background(), s.nw, p, s.opt)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	fmt.Fprintf(s.out, "%s: lits = %d, extracted %d kernels, vtime %d\n",
		res.Algorithm, res.LC, res.Extracted, res.VirtualTime)
	return nil
}

func (s *Shell) decomp(args []string) error {
	limit := 0
	if len(args) == 1 {
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		limit = n
	}
	return s.withNet(func() {
		created, _ := script.Decompose(s.nw, limit)
		fmt.Fprintf(s.out, "created %d nodes; lits = %d\n", created, s.nw.Literals())
	})
}

func (s *Shell) set(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: set {maxcols|maxvisits|batch} VALUE")
	}
	n, err := strconv.Atoi(args[1])
	if err != nil {
		return err
	}
	switch args[0] {
	case "maxcols":
		s.opt.Rect.MaxCols = n
	case "maxvisits":
		s.opt.Rect.MaxVisits = n
	case "batch":
		s.opt.BatchK = n
	default:
		return fmt.Errorf("unknown setting %q", args[0])
	}
	fmt.Fprintf(s.out, "%s = %d\n", args[0], n)
	return nil
}

func (s *Shell) help() {
	fmt.Fprint(s.out, `commands:
  read_blif FILE | read_eqn FILE | bench NAME    load a circuit
  write_blif FILE | write_eqn FILE               save the circuit
  print [NODE...] | print_factor [NODE...]       show SOP / factored forms
  print_stats                                    summary line
  gkx [-algo seq|repl|part|lshape] [-p N]        kernel extraction
  cx | sweep | simplify | eliminate | resub      single operations
  decomp [MAXCUBES]                              decompose large nodes
  script                                         full synthesis script
  set {maxcols|maxvisits|batch} VALUE            tune the search
  help | quit
`)
}
