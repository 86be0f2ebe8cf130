//go:build invariants

// Package invariant is the runtime complement of the repolint static
// suite: cheap cross-checks of the invariants the analyzers cannot
// prove at compile time — dense-index/matrix agreement, root-memo
// freshness, legal Table 5 state transitions. The checks are
// compiled in only under the "invariants" build tag (the CI lane runs
// `go test -race -tags invariants ./...`); in a default build Enabled
// is a constant false and every guarded check is dead-code-eliminated,
// so the hot paths pay nothing.
package invariant

import "fmt"

// Enabled reports whether invariant checking is compiled in. Guard
// non-trivial check bodies with it so the default build eliminates
// them:
//
//	if invariant.Enabled {
//		invariant.Assert(expensiveCheck(), "...")
//	}
const Enabled = true

// Assert panics with a formatted message when cond is false.
func Assert(cond bool, format string, args ...any) {
	if !cond {
		panic("invariant violated: " + fmt.Sprintf(format, args...))
	}
}
