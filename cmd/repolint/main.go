// Command repolint is the repository's multichecker: it runs the
// project-specific analyzer suite — the package-local checks (index
// invalidation, lock discipline, map iteration order, panic guarding,
// vtime charging) and the whole-program checks (lock-order cycles,
// context flow, fault-point coverage, code no program reaches) — over
// the packages named on the command line, defaulting to ./... — the
// same invocation CI uses as a required job.
//
// It must be run from inside this module (dependency type-checking
// resolves in-module imports through the go command):
//
//	go run ./cmd/repolint ./...
//
// The -write-faultpoints flag regenerates the fault-point registry
// (internal/fault/registry_gen.go) from the Point* constants instead
// of linting; run it after adding or removing an injection point.
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzers"
	"repro/internal/analysis/analyzers/faultpoint"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-write-faultpoints" {
		os.Exit(writeFaultpoints(args[1:]))
	}
	os.Exit(analysis.Main(os.Stdout, args, analyzers.All(), analyzers.Program()))
}

// writeFaultpoints regenerates internal/fault/registry_gen.go from
// the Point* constants of the loaded fault package.
func writeFaultpoints(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 2
	}
	prog := analysis.NewProgram(pkgs)
	dir, ok := faultpoint.FaultPackageDir(prog)
	if !ok {
		fmt.Fprintln(os.Stderr, "repolint: no fault package among the loaded packages")
		return 2
	}
	path := filepath.Join(dir, "registry_gen.go")
	if err := os.WriteFile(path, faultpoint.RegistryFile(faultpoint.Points(prog)), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 2
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}
