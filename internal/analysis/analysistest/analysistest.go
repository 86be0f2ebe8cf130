// Package analysistest is a miniature of
// golang.org/x/tools/go/analysis/analysistest, built on the standard
// library only. A test points Run at a testdata package directory
// whose files carry golden expectations as trailing comments:
//
//	for k := range m { // want `map iteration has nondeterministic`
//
// Each `// want "rx"` (quoted or backquoted regexp; several may share
// one comment) must be matched by exactly one diagnostic reported on
// that line, and every diagnostic must be claimed by a want. Justified
// //repolint:allow suppressions are applied before matching, exactly
// as the repolint driver applies them, so suites can also prove the
// escape hatch works.
//
//repolint:test-support
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads the one package in dir, applies the analyzer, filters
// suppressions, and diffs the diagnostics against the // want
// comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	files := parseDir(t, fset, dir)
	imp := importer.ForCompiler(fset, "source", nil)
	tpkg, info, err := analysis.Check(fset, imp, files[0].Name.Name, files)
	if err != nil {
		t.Fatalf("typecheck testdata: %v", err)
	}
	pkg := &analysis.Package{
		ImportPath: tpkg.Path(),
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	diags, err := analysis.RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("run analyzer: %v", err)
	}
	diags = analysis.Filter(fset, files, diags)
	analysis.SortDiagnostics(fset, diags)
	diffWants(t, fset, files, diags)
}

// RunProgram loads several testdata package directories as one
// mini-program — each directory is one package, importable by the
// later ones under its package name (`import "liba"`) — applies the
// whole-program analyzer, filters suppressions per package exactly as
// the repolint driver does, and diffs the diagnostics against the
// // want comments across all files.
//
// Directories are loaded in the order given, so dependencies must
// precede their importers.
func RunProgram(t *testing.T, a *analysis.ProgramAnalyzer, dirs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &mapImporter{
		pkgs:     map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		files := parseDir(t, fset, dir)
		name := files[0].Name.Name
		tpkg, info, err := analysis.Check(fset, imp, name, files)
		if err != nil {
			t.Fatalf("typecheck testdata %s: %v", dir, err)
		}
		imp.pkgs[name] = tpkg
		pkgs = append(pkgs, &analysis.Package{
			ImportPath: tpkg.Path(),
			Dir:        dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	prog := analysis.NewProgram(pkgs)
	diags, err := analysis.RunProgramAnalyzer(a, prog)
	if err != nil {
		t.Fatalf("run analyzer: %v", err)
	}
	var filtered []analysis.Diagnostic
	var allFiles []*ast.File
	buckets := analysis.SplitByPackage(prog, diags)
	for i, pkg := range pkgs {
		filtered = append(filtered, analysis.Filter(fset, pkg.Files, buckets[i])...)
		allFiles = append(allFiles, pkg.Files...)
	}
	filtered = append(filtered, buckets[-1]...)
	analysis.SortDiagnostics(fset, filtered)
	diffWants(t, fset, allFiles, filtered)
}

// mapImporter resolves the already-checked testdata packages by
// package name before falling back to the source importer for the
// standard library.
type mapImporter struct {
	pkgs     map[string]*types.Package
	fallback types.Importer
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// parseDir parses every Go file directly in dir, with comments.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read testdata dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// diffWants matches diagnostics against the // want comments: every
// diagnostic must be claimed by a want on its line and every want must
// claim exactly one diagnostic.
func diffWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[k] = append(wants[k], rx)
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, rx := range wants[k] {
			if rx != nil && rx.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		wants[k][matched] = nil // claimed
	}
	var unclaimed []string
	for k, rxs := range wants {
		for _, rx := range rxs {
			if rx != nil {
				unclaimed = append(unclaimed, k.file+":"+strconv.Itoa(k.line)+": no diagnostic matched "+rx.String())
			}
		}
	}
	sort.Strings(unclaimed)
	for _, u := range unclaimed {
		t.Errorf("%s", u)
	}
}
