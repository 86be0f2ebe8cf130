// Package analyzers registers the repository's analyzer suite in one
// place, so cmd/repolint and any future driver agree on what "all
// checks" means.
package analyzers

import (
	"repro/internal/analysis"
	"repro/internal/analysis/analyzers/ctxflow"
	"repro/internal/analysis/analyzers/faultpoint"
	"repro/internal/analysis/analyzers/indexinvalidate"
	"repro/internal/analysis/analyzers/lockdiscipline"
	"repro/internal/analysis/analyzers/lockorder"
	"repro/internal/analysis/analyzers/maporder"
	"repro/internal/analysis/analyzers/panicguard"
	"repro/internal/analysis/analyzers/testonly"
	"repro/internal/analysis/analyzers/vtimecharge"
)

// All returns the package-local analyzer suite in deterministic
// order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		indexinvalidate.Analyzer,
		lockdiscipline.Analyzer,
		maporder.Analyzer,
		panicguard.Analyzer,
		vtimecharge.Analyzer,
	}
}

// Program returns the whole-program analyzer suite in deterministic
// order. These need every loaded package at once: their invariants
// (lock ordering, context threading, fault coverage, reachability
// from a program) only exist across call edges.
func Program() []*analysis.ProgramAnalyzer {
	return []*analysis.ProgramAnalyzer{
		ctxflow.Analyzer,
		faultpoint.Analyzer,
		lockorder.Analyzer,
		testonly.Analyzer,
	}
}
