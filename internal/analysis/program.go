package analysis

import (
	"fmt"
	"go/token"
)

// Program is the whole loaded module view: every package the driver
// loaded, sharing one FileSet. Package-local analyzers see one Package
// at a time; interprocedural analyzers (lock ordering, context flow,
// fault-point coverage, reachability) see the Program, because the
// properties they check only exist across call edges.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// NewProgram bundles loaded packages into a Program. All packages must
// share one FileSet (Load guarantees this).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	} else {
		p.Fset = token.NewFileSet()
	}
	return p
}

// ProgramAnalyzer is one whole-program static check.
type ProgramAnalyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// repolint:allow suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer
	// enforces.
	Doc string
	// Run performs the check on the whole program.
	Run func(*ProgramPass) error
}

// ProgramPass carries the loaded program to a whole-program analyzer.
type ProgramPass struct {
	Analyzer *ProgramAnalyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunProgramAnalyzer applies one whole-program analyzer and returns
// the raw (unsuppressed) diagnostics.
func RunProgramAnalyzer(a *ProgramAnalyzer, prog *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &ProgramPass{Analyzer: a, Prog: prog, diags: &diags}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return diags, nil
}

// SplitByPackage groups diagnostics by the loaded package whose files
// contain them, so program-level diagnostics go through the same
// per-file suppression filtering as package-level ones. Diagnostics
// positioned outside any loaded file are returned under index -1.
func SplitByPackage(prog *Program, diags []Diagnostic) map[int][]Diagnostic {
	fileToPkg := map[string]int{}
	for i, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			fileToPkg[prog.Fset.Position(f.Pos()).Filename] = i
		}
	}
	out := map[int][]Diagnostic{}
	for _, d := range diags {
		idx, ok := fileToPkg[prog.Fset.Position(d.Pos).Filename]
		if !ok {
			idx = -1
		}
		out[idx] = append(out[idx], d)
	}
	return out
}
